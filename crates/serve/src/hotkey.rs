//! Hot-object detection and fast-track replica boosts.
//!
//! The monitor retunes on its own epoch cadence; between retunes a
//! disproportionately demanded ("hot") object keeps paying remote-read NTC
//! until the next AGRA pass notices it. The [`HotKeyDetector`] watches
//! per-object demand — an EWMA over a ring buffer of recent epoch windows —
//! and promotes objects whose smoothed demand stands far enough above the
//! fleet mean, with separate promotion and demotion thresholds so a key
//! oscillating near the line does not flap (hysteresis).
//!
//! Promotion does not bypass the cost model: [`apply_boosts`] turns the hot
//! set into *capacity-checked, NTC-improving* replica additions layered on
//! the policy's target scheme. A boost is taken only when the incremental
//! evaluator says the per-epoch saving at least covers the one-time fetch
//! cost from the nearest current holder, and the add itself goes through
//! [`CostEvaluator::apply_add`], which enforces storage capacity. Boosted
//! replicas are realized by the same staged-migration executor as any other
//! target change, and are retired when their object cools down — but only
//! when removal does not regress the modeled NTC.
//!
//! Everything is integer arithmetic in deterministic object/site order, so
//! the hot path preserves the runtime's bitwise-reproducibility discipline.

use drp_core::{CostEvaluator, ObjectId, Problem, ReplicationScheme, SiteId};

/// Fixed-point fractional bits of the demand EWMA.
const FP: u32 = 10;

/// Ring-buffer depth: demand is summed over the last `WINDOW` epochs.
pub(crate) const WINDOW: usize = 4;
/// EWMA weight of the newest window, in percent.
const ALPHA_PCT: u64 = 50;
/// Promote when `ewma * 100 >= PROMOTE_PCT * mean_ewma`.
const PROMOTE_PCT: u64 = 200;
/// Demote when `ewma * 100 <= DEMOTE_PCT * mean_ewma`; below
/// [`PROMOTE_PCT`], so the band between them is the hysteresis.
const DEMOTE_PCT: u64 = 120;
/// Cap on simultaneously promoted objects.
const MAX_HOT: usize = 4;
/// Fast-track replicas maintained per hot object.
const BOOST_REPLICAS: usize = 1;

/// What one [`HotKeyDetector::observe`] call changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotStep {
    /// Objects promoted to hot this epoch.
    pub promotions: u64,
    /// Objects demoted from hot this epoch.
    pub demotions: u64,
}

/// Serializable detector state, journaled into the WAL's retune records so
/// durable recovery restores the hot set exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotSnapshot {
    /// Ring windows, oldest first; each is a per-object demand vector.
    pub windows: Vec<Vec<u64>>,
    /// Fixed-point EWMA per object.
    pub ewma: Vec<u64>,
    /// Promotion flags per object.
    pub promoted: Vec<bool>,
    /// Fast-track replicas currently layered on the target: `(site, object)`.
    pub boosted: Vec<(u64, u64)>,
    /// Lifetime promotions.
    pub promotions: u64,
    /// Lifetime demotions.
    pub demotions: u64,
}

/// Windowed per-object demand EWMA with promotion/demotion hysteresis.
#[derive(Debug, Clone)]
pub struct HotKeyDetector {
    /// Last [`WINDOW`] demand vectors, oldest first.
    ring: std::collections::VecDeque<Vec<u64>>,
    /// Per-object sum over the ring.
    window_sum: Vec<u64>,
    /// Fixed-point (`<< FP`) smoothed windowed demand per object.
    ewma: Vec<u64>,
    promoted: Vec<bool>,
    promotions: u64,
    demotions: u64,
}

impl HotKeyDetector {
    /// Creates a cold detector for `num_objects` objects.
    pub fn new(num_objects: usize) -> Self {
        Self {
            ring: std::collections::VecDeque::with_capacity(WINDOW),
            window_sum: vec![0; num_objects],
            ewma: vec![0; num_objects],
            promoted: vec![false; num_objects],
            promotions: 0,
            demotions: 0,
        }
    }

    /// Folds one epoch's per-object demand into the window and re-decides
    /// the hot set. Deterministic: promotion candidates are ranked by
    /// `(ewma desc, object id asc)` and admitted up to `MAX_HOT` (4).
    ///
    /// # Panics
    ///
    /// Panics if `demand.len()` differs from the detector's object count.
    pub fn observe(&mut self, demand: &[u64]) -> HotStep {
        let n = self.window_sum.len();
        assert_eq!(demand.len(), n, "demand vector shape");
        if self.ring.len() == WINDOW {
            let old = self.ring.pop_front().expect("non-empty ring");
            for (sum, v) in self.window_sum.iter_mut().zip(&old) {
                *sum -= v;
            }
        }
        for (sum, v) in self.window_sum.iter_mut().zip(demand) {
            *sum += v;
        }
        self.ring.push_back(demand.to_vec());

        for (e, &w) in self.ewma.iter_mut().zip(&self.window_sum) {
            *e = (ALPHA_PCT * (w << FP) + (100 - ALPHA_PCT) * *e) / 100;
        }

        let mean = self.ewma.iter().sum::<u64>() / n.max(1) as u64;
        let mut step = HotStep::default();
        if mean == 0 {
            // No signal: demote everything rather than divide by zero.
            for p in &mut self.promoted {
                if *p {
                    *p = false;
                    step.demotions += 1;
                }
            }
            self.demotions += step.demotions;
            return step;
        }

        for k in 0..n {
            if self.promoted[k] && self.ewma[k] * 100 <= DEMOTE_PCT * mean {
                self.promoted[k] = false;
                step.demotions += 1;
            }
        }
        let hot_count = self.promoted.iter().filter(|&&p| p).count();
        let mut candidates: Vec<usize> = (0..n)
            .filter(|&k| !self.promoted[k] && self.ewma[k] * 100 >= PROMOTE_PCT * mean)
            .collect();
        candidates.sort_by_key(|&k| (std::cmp::Reverse(self.ewma[k]), k));
        candidates.truncate(MAX_HOT.saturating_sub(hot_count));
        for k in candidates {
            self.promoted[k] = true;
            step.promotions += 1;
        }
        self.promotions += step.promotions;
        self.demotions += step.demotions;
        step
    }

    /// Whether `object` is currently promoted.
    pub fn is_hot(&self, object: usize) -> bool {
        self.promoted[object]
    }

    /// Promoted objects in ascending id order.
    pub fn hot_objects(&self) -> impl Iterator<Item = usize> + '_ {
        self.promoted
            .iter()
            .enumerate()
            .filter_map(|(k, &p)| p.then_some(k))
    }

    /// Lifetime `(promotions, demotions)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.promotions, self.demotions)
    }

    /// Exports the full detector state (`boosted` is supplied by the
    /// runtime, which owns the overlay bookkeeping).
    pub fn snapshot(&self, boosted: &[(usize, usize)]) -> HotSnapshot {
        HotSnapshot {
            windows: self.ring.iter().cloned().collect(),
            ewma: self.ewma.clone(),
            promoted: self.promoted.clone(),
            boosted: boosted.iter().map(|&(i, k)| (i as u64, k as u64)).collect(),
            promotions: self.promotions,
            demotions: self.demotions,
        }
    }

    /// Rebuilds a detector (and the runtime's boosted list) from a
    /// journaled snapshot.
    pub fn restore(snap: &HotSnapshot) -> (Self, Vec<(usize, usize)>) {
        let mut det = Self::new(snap.ewma.len());
        for w in snap.windows.iter().take(WINDOW) {
            for (sum, v) in det.window_sum.iter_mut().zip(w) {
                *sum += v;
            }
            det.ring.push_back(w.clone());
        }
        det.ewma = snap.ewma.clone();
        det.promoted = snap.promoted.clone();
        det.promotions = snap.promotions;
        det.demotions = snap.demotions;
        let boosted = snap
            .boosted
            .iter()
            .map(|&(i, k)| (i as usize, k as usize))
            .collect();
        (det, boosted)
    }
}

/// What [`apply_boosts`] did to the target scheme.
#[derive(Debug, Clone)]
pub struct BoostOutcome {
    /// The target with the fast-track overlay applied.
    pub target: ReplicationScheme,
    /// Fast-track replicas now present in the target: `(site, object)`,
    /// in deterministic order.
    pub boosted: Vec<(usize, usize)>,
    /// Replicas added this boundary.
    pub added: u64,
    /// Previously boosted replicas retired this boundary.
    pub removed: u64,
}

/// One-time fetch NTC of installing `object` at `site`: object size times
/// the cheapest link from a current holder in the realized directory —
/// the same source choice the migration planner makes.
fn fetch_cost(
    problem: &Problem,
    realized: &ReplicationScheme,
    site: SiteId,
    object: ObjectId,
) -> u64 {
    let size = problem.object_size(object);
    let from = realized
        .replicators(object)
        .map(|j| problem.costs().cost(site.index(), j.index()))
        .min()
        .unwrap_or(u64::MAX);
    size.saturating_mul(from)
}

/// Layers the detector's hot set onto `target` as capacity-checked,
/// NTC-improving replica boosts, and retires stale boosts from previous
/// boundaries.
///
/// For each hot object, candidate sites are ranked by that object's read
/// demand (descending, site id ascending) and admitted while the object
/// has fewer than `BOOST_REPLICAS` (1) live boosts, the evaluator predicts
/// a strict NTC improvement that covers the fetch cost from the realized
/// directory, and the capacity-checked add succeeds. A boost whose object
/// cooled down is removed only when the removal does not increase the
/// modeled NTC; otherwise it is kept and retried at the next boundary.
pub fn apply_boosts(
    problem: &Problem,
    realized: &ReplicationScheme,
    target: ReplicationScheme,
    detector: &HotKeyDetector,
    prev_boosted: &[(usize, usize)],
) -> BoostOutcome {
    let mut eval = CostEvaluator::new(problem, target);
    let mut boosted: Vec<(usize, usize)> = Vec::new();
    let mut added = 0u64;
    let mut removed = 0u64;

    // Retire or carry forward the previous overlay.
    for &(i, k) in prev_boosted {
        let (site, object) = (SiteId::new(i), ObjectId::new(k));
        if !eval.scheme().holds(site, object) {
            continue; // the policy already dropped it
        }
        if detector.is_hot(k) {
            boosted.push((i, k));
            continue;
        }
        let removable = problem.primary(object) != site && eval.delta_remove(site, object) <= 0;
        if removable && eval.apply_remove(site, object).is_ok() {
            removed += 1;
        } else {
            // Still paying for itself (or pinned): keep serving it.
            boosted.push((i, k));
        }
    }

    // Fresh boosts for the current hot set, object order then demand order.
    for k in detector.hot_objects() {
        let object = ObjectId::new(k);
        let mut live = boosted.iter().filter(|&&(_, bk)| bk == k).count();
        if live >= BOOST_REPLICAS {
            continue;
        }
        let reads = problem.object_reads(object);
        let mut sites: Vec<usize> = (0..problem.num_sites()).filter(|&i| reads[i] > 0).collect();
        sites.sort_by_key(|&i| (std::cmp::Reverse(reads[i]), i));
        for i in sites {
            if live >= BOOST_REPLICAS {
                break;
            }
            let site = SiteId::new(i);
            if eval.scheme().holds(site, object) {
                continue;
            }
            let delta = eval.delta_add(site, object);
            if delta >= 0 {
                continue;
            }
            let saving = delta.unsigned_abs();
            if saving < fetch_cost(problem, realized, site, object) {
                continue; // would not pay for its own migration this epoch
            }
            if eval.apply_add(site, object).is_ok() {
                boosted.push((i, k));
                live += 1;
                added += 1;
            }
        }
    }

    boosted.sort_unstable();
    BoostOutcome {
        target: eval.into_scheme(),
        boosted,
        added,
        removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Whether `object`'s EWMA sits strictly inside the hysteresis band:
    /// below the promotion line, above the demotion line.
    fn in_band(det: &HotKeyDetector, object: usize) -> bool {
        let mean = det.ewma.iter().sum::<u64>() / det.ewma.len() as u64;
        let e = det.ewma[object] * 100;
        DEMOTE_PCT * mean < e && e < PROMOTE_PCT * mean
    }

    #[test]
    fn hysteresis_promotes_then_demotes_with_lag() {
        let mut det = HotKeyDetector::new(4);
        // Uniform demand: nothing promotes.
        let step = det.observe(&[10, 10, 10, 10]);
        assert_eq!(step, HotStep::default());
        // Object 2 spikes to well over 2x the mean.
        let step = det.observe(&[10, 10, 200, 10]);
        assert_eq!(step.promotions, 1);
        assert!(det.is_hot(2));
        // The spike leaves the window and the EWMA decays; object 2 stays
        // hot while it is still above the demote line, including epochs
        // where it has already fallen below the promote line.
        let mut band_epochs = 0;
        for _ in 0..6 {
            let step = det.observe(&[10, 10, 10, 10]);
            assert_eq!(step, HotStep::default(), "still hot above the band floor");
            assert!(det.is_hot(2));
            band_epochs += u32::from(in_band(&det, 2));
        }
        assert!(band_epochs > 0, "the decay never crossed the band");
        // Demand uniform long enough: it drops through the demote line.
        let step = det.observe(&[10, 10, 10, 10]);
        assert_eq!(step.demotions, 1);
        assert!(!det.is_hot(2));
        assert_eq!(det.counters(), (1, 1));
    }

    #[test]
    fn max_hot_caps_the_promoted_set_deterministically() {
        let mut demand = vec![1u64; 20];
        demand[..5].copy_from_slice(&[100, 90, 95, 98, 97]);
        let mut det = HotKeyDetector::new(demand.len());
        // Five objects stand over 2x the mean; only MAX_HOT are admitted.
        let step = det.observe(&demand);
        assert_eq!(step.promotions, MAX_HOT as u64);
        let hot: Vec<usize> = det.hot_objects().collect();
        assert_eq!(hot, vec![0, 2, 3, 4], "four hottest by ewma, ids ascending");
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let mut det = HotKeyDetector::new(6);
        for epoch in 0..5u64 {
            let demand: Vec<u64> = (0..6).map(|k| (k as u64 + 1) * (epoch + 1) % 37).collect();
            det.observe(&demand);
        }
        let boosted = vec![(3usize, 1usize), (0, 4)];
        let snap = det.snapshot(&boosted);
        assert_eq!(snap.windows.len(), WINDOW);
        let (back, boosted_back) = HotKeyDetector::restore(&snap);
        assert_eq!(boosted_back, boosted);
        assert_eq!(back.snapshot(&boosted_back), snap);
        // The restored detector evolves identically.
        let mut a = det;
        let mut b = back;
        let step_a = a.observe(&[5, 4, 3, 2, 1, 0]);
        let step_b = b.observe(&[5, 4, 3, 2, 1, 0]);
        assert_eq!(step_a, step_b);
        assert_eq!(a.snapshot(&[]), b.snapshot(&[]));
    }

    #[test]
    fn boosts_are_capacity_checked_and_ntc_improving() {
        let problem = WorkloadSpec::paper(6, 5, 10.0, 30.0)
            .generate(&mut StdRng::seed_from_u64(8))
            .unwrap();
        let target = ReplicationScheme::primary_only(&problem);
        let mut det = HotKeyDetector::new(problem.num_objects());
        // Two objects carry most of the demand: both promote.
        det.observe(&[1000, 1, 1000, 1, 1]);
        assert_eq!(det.hot_objects().collect::<Vec<_>>(), vec![0, 2]);

        let before = problem.total_cost(&target);
        let out = apply_boosts(&problem, &target, target.clone(), &det, &[]);
        assert!(out.added > 0, "a primary-only scheme leaves boosts to take");
        assert_eq!(out.added as usize, out.boosted.len());
        out.target.validate(&problem).unwrap();
        // At most BOOST_REPLICAS per hot object, each one paying for its
        // own fetch from the realized directory within one epoch.
        for &(i, k) in &out.boosted {
            assert!(det.is_hot(k));
            assert_eq!(
                out.boosted.iter().filter(|&&(_, bk)| bk == k).count(),
                BOOST_REPLICAS
            );
            let (site, object) = (SiteId::new(i), ObjectId::new(k));
            let fetch = fetch_cost(&problem, &target, site, object);
            let mut without = out.target.clone();
            without.remove_replica(&problem, site, object).unwrap();
            let saving = problem.total_cost(&without) - problem.total_cost(&out.target);
            assert!(
                saving >= fetch,
                "boost ({i}, {k}) saves {saving} < fetch {fetch}"
            );
        }
        assert!(problem.total_cost(&out.target) < before);

        // Cooled down: uniform demand flushes the window and demotes both,
        // and retirement never regresses the modeled NTC.
        let mut cold = det.clone();
        for _ in 0..16 {
            cold.observe(&[10; 5]);
        }
        assert_eq!(cold.hot_objects().count(), 0);
        let retired = apply_boosts(&problem, &target, out.target.clone(), &cold, &out.boosted);
        let final_cost = problem.total_cost(&retired.target);
        assert!(
            final_cost <= problem.total_cost(&out.target),
            "retirement must not regress NTC"
        );
        retired.target.validate(&problem).unwrap();
    }
}
