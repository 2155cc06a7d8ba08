//! The [`ServiceReport`] a service run produces.
//!
//! Every field is either an integer counter or a float rendered with a
//! fixed number of decimals, so [`ServiceReport::render_json`] is a
//! byte-stable function of the run and [`ServiceReport::fingerprint`]
//! (FNV-1a over the rendered JSON) can be compared across processes and
//! thread counts to certify bitwise determinism. The JSON comes from
//! `render_json`: the workspace's vendored serde derives expand to nothing.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// What one serving epoch did and cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Whether the boundary closing this epoch was a night (GRA rebuild).
    pub night: bool,
    /// Objects past the drift threshold at this epoch's boundary (0 when
    /// the monitor kept the scheme or the policy never adapts).
    pub adapted_objects: usize,
    /// Whether a nightly GRA rebuild ran at this epoch's boundary.
    pub rebuilt: bool,
    /// Always 0: no policy runs a hot-object overlay any more. The field
    /// stays so that the report's JSON keys and WAL `EpochEnd` encoding,
    /// and with them every static and monitor fingerprint, are unchanged.
    pub hot_promotions: u64,
    /// Always 0, kept for the report shape like
    /// [`hot_promotions`](Self::hot_promotions).
    pub hot_demotions: u64,
    /// NTC of serving traffic during the epoch (reads, write ships, update
    /// broadcasts).
    pub serving_ntc: u64,
    /// NTC of migration fetches executed during the epoch, charged
    /// separately from serving.
    pub migration_ntc: u64,
    /// Replica moves (additions + removals) the epoch started with.
    pub migration_planned: usize,
    /// Replica additions that completed their fetch + cutover this epoch.
    pub migration_installed: usize,
    /// Replica removals applied after their object's cutover.
    pub migration_deallocated: usize,
    /// Additions still pending at epoch end (crashed sources; retried next
    /// epoch from the re-planned remainder).
    pub migration_deferred: usize,
    /// Fetch retries issued by the migration executor.
    pub migration_retries: u64,
    /// Requests generated by the streaming driver (the observation window
    /// sees all of them).
    pub offered: u64,
    /// Requests admitted to the simulator after per-site admission control.
    pub admitted: u64,
    /// Requests shed by per-site backpressure (`offered - admitted`).
    pub shed: u64,
    /// Reads admitted into the epoch.
    pub reads_issued: u64,
    /// Reads that received data (locally or over the network).
    pub reads_served: u64,
    /// Served reads whose replica lagged the committed version.
    pub reads_stale: u64,
    /// Reads lost to crashes or drops (`issued - served`).
    pub reads_lost: u64,
    /// Writes admitted into the epoch.
    pub writes_issued: u64,
    /// Writes committed at the primary.
    pub writes_committed: u64,
    /// Writes lost before reaching the primary (`issued - committed`).
    pub writes_lost: u64,
    /// Replica count in the directory at epoch end.
    pub replicas: usize,
    /// NTC savings of the realized scheme against the epoch's true pattern,
    /// percent of the primary-only cost.
    pub savings_percent: f64,
    /// Crash transitions delivered during the epoch.
    pub crashes: u64,
    /// Messages lost to drops, partitions or crashed destinations.
    pub messages_lost: u64,
    /// Simulator events processed.
    pub sim_events: u64,
    /// Simulated instant the epoch's last message settled.
    pub completion_time: u64,
}

/// Cumulative counters across all epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServiceTotals {
    /// Σ serving NTC.
    pub serving_ntc: u64,
    /// Σ migration NTC.
    pub migration_ntc: u64,
    /// `serving_ntc + migration_ntc` — the figure policies are compared on.
    pub total_ntc: u64,
    /// Daytime AGRA adaptations triggered.
    pub adaptations: u64,
    /// Nightly GRA rebuilds triggered.
    pub rebuilds: u64,
    /// Replica moves planned across all boundaries.
    pub migration_moves: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Reads lost to faults.
    pub reads_lost: u64,
    /// Stale reads served.
    pub reads_stale: u64,
    /// Writes lost to faults.
    pub writes_lost: u64,
    /// Sum of [`EpochReport::hot_promotions`]: always 0, kept for the
    /// report shape.
    pub hot_promotions: u64,
    /// Sum of [`EpochReport::hot_demotions`]: always 0, kept for the
    /// report shape.
    pub hot_demotions: u64,
}

/// The complete, deterministic record of one service run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Name of the adaptation [`Policy`](crate::Policy) that ran.
    pub policy: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Simulated time units per epoch.
    pub period: u64,
    /// Per-site admission limit (0 = unlimited).
    pub admission_limit: u64,
    /// Every `k`-th boundary is a night (0 = never).
    pub night_every: usize,
    /// Per-epoch records, in order.
    pub epochs: Vec<EpochReport>,
    /// Cumulative counters.
    pub totals: ServiceTotals,
    /// Online total NTC over the offline-optimal replay oracle's
    /// (`>= 1.0` when computed, `0.0` when the run was not scored — the
    /// oracle is an offline analysis, not part of the serving loop).
    pub competitive_ratio: f64,
}

impl ServiceReport {
    /// Recomputes [`ServiceTotals`] from the per-epoch records.
    pub fn tally(epochs: &[EpochReport], adaptations: u64, rebuilds: u64) -> ServiceTotals {
        let mut t = ServiceTotals {
            adaptations,
            rebuilds,
            ..ServiceTotals::default()
        };
        for e in epochs {
            t.serving_ntc += e.serving_ntc;
            t.migration_ntc += e.migration_ntc;
            t.migration_moves += e.migration_planned as u64;
            t.shed += e.shed;
            t.reads_lost += e.reads_lost;
            t.reads_stale += e.reads_stale;
            t.writes_lost += e.writes_lost;
            t.hot_promotions += e.hot_promotions;
            t.hot_demotions += e.hot_demotions;
        }
        t.total_ntc = t.serving_ntc + t.migration_ntc;
        t
    }

    /// Renders the report as stable, human-diffable JSON. Field order is
    /// fixed and floats carry exactly four decimals, so equal reports
    /// render to equal bytes.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"policy\": \"{}\",", self.policy);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"period\": {},", self.period);
        let _ = writeln!(out, "  \"admission_limit\": {},", self.admission_limit);
        let _ = writeln!(out, "  \"night_every\": {},", self.night_every);
        out.push_str("  \"epochs\": [\n");
        for (index, e) in self.epochs.iter().enumerate() {
            let comma = if index + 1 < self.epochs.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"epoch\": {}, \"night\": {}, \"adapted_objects\": {}, \
                 \"rebuilt\": {}, \"hot_promotions\": {}, \"hot_demotions\": {}, \
                 \"serving_ntc\": {}, \"migration_ntc\": {}, \
                 \"migration_planned\": {}, \"migration_installed\": {}, \
                 \"migration_deallocated\": {}, \"migration_deferred\": {}, \
                 \"migration_retries\": {}, \"offered\": {}, \"admitted\": {}, \
                 \"shed\": {}, \"reads_issued\": {}, \"reads_served\": {}, \
                 \"reads_stale\": {}, \"reads_lost\": {}, \"writes_issued\": {}, \
                 \"writes_committed\": {}, \"writes_lost\": {}, \"replicas\": {}, \
                 \"savings_percent\": {:.4}, \"crashes\": {}, \"messages_lost\": {}, \
                 \"sim_events\": {}, \"completion_time\": {}}}{comma}",
                e.epoch,
                e.night,
                e.adapted_objects,
                e.rebuilt,
                e.hot_promotions,
                e.hot_demotions,
                e.serving_ntc,
                e.migration_ntc,
                e.migration_planned,
                e.migration_installed,
                e.migration_deallocated,
                e.migration_deferred,
                e.migration_retries,
                e.offered,
                e.admitted,
                e.shed,
                e.reads_issued,
                e.reads_served,
                e.reads_stale,
                e.reads_lost,
                e.writes_issued,
                e.writes_committed,
                e.writes_lost,
                e.replicas,
                e.savings_percent,
                e.crashes,
                e.messages_lost,
                e.sim_events,
                e.completion_time,
            );
        }
        out.push_str("  ],\n");
        let t = &self.totals;
        let _ = writeln!(
            out,
            "  \"totals\": {{\"serving_ntc\": {}, \"migration_ntc\": {}, \
             \"total_ntc\": {}, \"adaptations\": {}, \"rebuilds\": {}, \
             \"migration_moves\": {}, \"shed\": {}, \"reads_lost\": {}, \
             \"reads_stale\": {}, \"writes_lost\": {}, \
             \"hot_promotions\": {}, \"hot_demotions\": {}}},",
            t.serving_ntc,
            t.migration_ntc,
            t.total_ntc,
            t.adaptations,
            t.rebuilds,
            t.migration_moves,
            t.shed,
            t.reads_lost,
            t.reads_stale,
            t.writes_lost,
            t.hot_promotions,
            t.hot_demotions,
        );
        let _ = writeln!(
            out,
            "  \"competitive_ratio\": {:.4}",
            self.competitive_ratio
        );
        out.push('}');
        out
    }

    /// FNV-1a hash of [`render_json`](Self::render_json): a compact
    /// determinism certificate. Two runs with the same seed must produce
    /// the same fingerprint regardless of `DRP_THREADS`.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.render_json().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_epoch() -> EpochReport {
        EpochReport {
            epoch: 0,
            night: false,
            adapted_objects: 2,
            rebuilt: false,
            hot_promotions: 1,
            hot_demotions: 0,
            serving_ntc: 1000,
            migration_ntc: 50,
            migration_planned: 3,
            migration_installed: 2,
            migration_deallocated: 1,
            migration_deferred: 1,
            migration_retries: 4,
            offered: 120,
            admitted: 100,
            shed: 20,
            reads_issued: 80,
            reads_served: 78,
            reads_stale: 1,
            reads_lost: 2,
            writes_issued: 20,
            writes_committed: 20,
            writes_lost: 0,
            replicas: 9,
            savings_percent: 33.25,
            crashes: 1,
            messages_lost: 3,
            sim_events: 500,
            completion_time: 412,
        }
    }

    fn sample() -> ServiceReport {
        let epochs = vec![sample_epoch()];
        let totals = ServiceReport::tally(&epochs, 1, 0);
        ServiceReport {
            policy: "monitor".into(),
            seed: 7,
            period: 400,
            admission_limit: 0,
            night_every: 0,
            epochs,
            totals,
            competitive_ratio: 0.0,
        }
    }

    #[test]
    fn totals_accumulate() {
        let r = sample();
        assert_eq!(r.totals.serving_ntc, 1000);
        assert_eq!(r.totals.migration_ntc, 50);
        assert_eq!(r.totals.total_ntc, 1050);
        assert_eq!(r.totals.adaptations, 1);
        assert_eq!(r.totals.shed, 20);
        assert_eq!(r.totals.hot_promotions, 1);
        assert_eq!(r.totals.hot_demotions, 0);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample();
        c.epochs[0].serving_ntc += 1;
        c.totals = ServiceReport::tally(&c.epochs, 1, 0);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn json_shape_is_stable() {
        let json = sample().render_json();
        assert!(json.contains("\"policy\": \"monitor\""));
        assert!(json.contains("\"savings_percent\": 33.2500"));
        assert!(json.contains("\"totals\": {\"serving_ntc\": 1000"));
    }
}
