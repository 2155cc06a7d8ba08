//! Deterministic fault injection for the discrete-event simulator.
//!
//! A [`FaultPlan`] is a *seeded schedule* of adverse conditions the
//! [`Simulator`](super::Simulator) consults on every send and delivery:
//!
//! * **site crashes** — half-open windows `[from, until)` during which a
//!   site is fail-stopped: it receives nothing, its timers are discarded
//!   when they fire, and effects it would produce are suppressed;
//! * **message drops** — an i.i.d. per-message loss probability;
//! * **delay jitter** — a uniformly drawn extra delivery delay.
//!
//! The random components are derived with a splitmix64 hash of the plan's
//! seed and a monotonically increasing draw counter, so a given plan
//! produces *bitwise identical* simulations on every run — faults are as
//! reproducible as the fault-free engine.
//!
//! Sites follow the fail-stop-with-durable-storage model: a crashed site
//! loses in-flight messages and pending timers but keeps its local state,
//! which matches the paper's assumption that replicas survive on disk and
//! only availability is lost.

use super::event::Time;

/// One site-crash window: the site is down for `from <= t < until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed site.
    pub site: usize,
    /// First instant (inclusive) the site is down.
    pub from: Time,
    /// First instant (exclusive) the site is back up.
    pub until: Time,
}

/// Seeded, deterministic schedule of faults injected into a simulation.
///
/// Built fluently and handed to
/// [`Simulator::set_fault_plan`](super::Simulator::set_fault_plan):
///
/// ```
/// use drp_net::sim::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .crash(3, 100, 400)
///     .drop_probability(0.01)
///     .jitter(2);
/// assert!(!plan.is_up(3, 250));
/// assert!(plan.is_up(3, 400)); // windows are half-open
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<CrashWindow>,
    /// The same windows ordered by `(site, from)`, so [`Self::is_up`]
    /// finds a site's windows by binary search.
    by_site: Vec<CrashWindow>,
    drop_probability: f64,
    max_jitter: Time,
    draws: u64,
}

impl FaultPlan {
    /// A plan with no faults; the seed feeds the drop/jitter draws.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            crashes: Vec::new(),
            by_site: Vec::new(),
            drop_probability: 0.0,
            max_jitter: 0,
            draws: 0,
        }
    }

    /// Crashes `site` for `from <= t < until`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`from >= until`).
    pub fn crash(mut self, site: usize, from: Time, until: Time) -> Self {
        assert!(from < until, "empty crash window [{from}, {until})");
        let window = CrashWindow { site, from, until };
        self.crashes.push(window);
        let i = self
            .by_site
            .partition_point(|w| (w.site, w.from) <= (site, from));
        self.by_site.insert(i, window);
        self
    }

    /// Drops each message independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.drop_probability = p;
        self
    }

    /// Adds a uniform extra delay in `0..=max_extra` to every delivery.
    pub fn jitter(mut self, max_extra: Time) -> Self {
        self.max_jitter = max_extra;
        self
    }

    /// The seed the random drop/jitter draws derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled crash windows, in insertion order.
    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// Is `site` up at time `at`? O(log windows + the site's windows
    /// starting by `at`).
    pub fn is_up(&self, site: usize, at: Time) -> bool {
        let first = self.by_site.partition_point(|w| w.site < site);
        !self.by_site[first..]
            .iter()
            .take_while(|w| w.site == site && w.from <= at)
            .any(|w| at < w.until)
    }

    /// [`Self::is_up`] as a scan of every window: the reference the
    /// indexed lookup is tested against.
    #[cfg(test)]
    fn is_up_linear(&self, site: usize, at: Time) -> bool {
        !self
            .crashes
            .iter()
            .any(|w| w.site == site && w.from <= at && at < w.until)
    }

    /// Next deterministic pseudo-random u64 (counter-mode splitmix64).
    fn next_draw(&mut self) -> u64 {
        self.draws += 1;
        splitmix64(self.seed ^ self.draws.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Decides the fate of one message.
    pub(crate) fn verdict(&mut self) -> Verdict {
        if self.drop_probability > 0.0 {
            let u = (self.next_draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if u < self.drop_probability {
                return Verdict::DropRandom;
            }
        }
        let extra = if self.max_jitter > 0 {
            let draw = self.next_draw();
            match self.max_jitter.checked_add(1) {
                Some(modulus) => draw % modulus,
                // max_jitter == Time::MAX: every u64 draw is already in
                // 0..=max_jitter, so use it directly.
                None => draw,
            }
        } else {
            0
        };
        Verdict::Deliver { extra_delay: extra }
    }
}

/// Outcome of consulting the plan for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver, possibly with extra latency.
    Deliver {
        /// Jitter added on top of the link cost.
        extra_delay: Time,
    },
    /// Lost to the i.i.d. drop probability.
    DropRandom,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counters of what the injector actually did during a run.
///
/// All fields are deterministic for a fixed [`FaultPlan`], so they can be
/// asserted exactly in regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages lost to the i.i.d. drop probability.
    pub dropped_random: u64,
    /// Messages that arrived at a crashed destination and were discarded.
    pub lost_arrivals: u64,
    /// Timers that fired while their owner was down and were discarded.
    pub lost_timers: u64,
    /// Send/timer effects suppressed because their origin was down.
    pub suppressed_effects: u64,
    /// Crash transitions delivered to nodes.
    pub crashes: u64,
    /// Recovery transitions delivered to nodes.
    pub recoveries: u64,
    /// Total extra delivery delay injected by jitter.
    pub extra_delay: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The site-indexed lookup answers like the linear scan on
        /// overlapping and abutting windows, at each window's `from`,
        /// `until − 1` and `until`, and at arbitrary times.
        #[test]
        fn indexed_is_up_matches_the_linear_scan(
            windows in prop::collection::vec((0usize..4, 0u64..40, 1u64..20, 0u8..3), 0..12),
            probes in prop::collection::vec((0usize..5, 0u64..80), 0..40),
        ) {
            let mut plan = FaultPlan::new(0);
            let mut last_until = 0;
            for &(site, from, len, abut) in &windows {
                // One window in three starts where the previous one ended.
                let from = if abut == 0 { last_until } else { from };
                plan = plan.crash(site, from, from + len);
                last_until = from + len;
            }
            let mut queries = probes.clone();
            for w in plan.crash_windows() {
                for at in [w.from, w.until - 1, w.until] {
                    queries.extend((0..5).map(|site| (site, at)));
                }
            }
            for (site, at) in queries {
                prop_assert_eq!(
                    plan.is_up(site, at),
                    plan.is_up_linear(site, at),
                    "site {} at {}", site, at
                );
            }
        }
    }

    #[test]
    fn crash_windows_are_half_open() {
        let plan = FaultPlan::new(1).crash(2, 10, 20);
        assert!(plan.is_up(2, 9));
        assert!(!plan.is_up(2, 10));
        assert!(!plan.is_up(2, 19));
        assert!(plan.is_up(2, 20));
        assert!(plan.is_up(0, 15)); // other sites unaffected
    }

    #[test]
    fn verdicts_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(seed).drop_probability(0.3).jitter(5);
            (0..200).map(|_| plan.verdict()).collect::<Vec<Verdict>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn drop_probability_extremes() {
        let mut never = FaultPlan::new(3);
        let mut always = FaultPlan::new(3).drop_probability(1.0);
        for _ in 0..50 {
            assert_eq!(never.verdict(), Verdict::Deliver { extra_delay: 0 });
            assert_eq!(always.verdict(), Verdict::DropRandom);
        }
    }

    #[test]
    fn jitter_is_bounded() {
        let mut plan = FaultPlan::new(9).jitter(4);
        for _ in 0..200 {
            match plan.verdict() {
                Verdict::Deliver { extra_delay } => assert!(extra_delay <= 4),
                v => panic!("unexpected verdict {v:?}"),
            }
        }
    }

    #[test]
    fn jitter_at_time_max_does_not_overflow() {
        // max_jitter + 1 used to overflow u64 (debug panic, % 0 in release).
        let mut plan = FaultPlan::new(11).jitter(Time::MAX);
        for _ in 0..50 {
            match plan.verdict() {
                Verdict::Deliver { .. } => {}
                v => panic!("unexpected verdict {v:?}"),
            }
        }
        // One below the boundary still goes through the modulus path.
        let mut plan = FaultPlan::new(11).jitter(Time::MAX - 1);
        match plan.verdict() {
            Verdict::Deliver { extra_delay } => assert!(extra_delay < Time::MAX),
            v => panic!("unexpected verdict {v:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "empty crash window")]
    fn empty_crash_window_panics() {
        let _ = FaultPlan::new(0).crash(0, 10, 10);
    }
}
