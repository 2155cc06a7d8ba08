//! End-to-end metrics derived from the epochs of one or more
//! [`ServiceReport`]s, the per-epoch conservation gate, and the order
//! statistics the benchmark reports.

use drp_serve::{EpochReport, ServiceReport};

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sum(epochs: &[EpochReport], field: fn(&EpochReport) -> u64) -> u64 {
    epochs.iter().map(field).sum()
}

/// Requests offered.
pub fn offered(epochs: &[EpochReport]) -> u64 {
    sum(epochs, |e| e.offered)
}

/// Reads served plus writes committed, over requests offered: shed and
/// lost requests count as failed.
pub fn served_frac(epochs: &[EpochReport]) -> f64 {
    ratio(
        sum(epochs, |e| e.reads_served + e.writes_committed),
        offered(epochs),
    )
}

/// Served reads that returned an older version than the committed one.
pub fn stale_frac(epochs: &[EpochReport]) -> f64 {
    ratio(
        sum(epochs, |e| e.reads_stale),
        sum(epochs, |e| e.reads_served),
    )
}

/// Serving plus migration NTC per request offered.
pub fn ntc_per_req(epochs: &[EpochReport]) -> f64 {
    ratio(
        sum(epochs, |e| e.serving_ntc + e.migration_ntc),
        offered(epochs),
    )
}

/// Migration's share of the total NTC.
pub fn migration_ntc_share(epochs: &[EpochReport]) -> f64 {
    ratio(
        sum(epochs, |e| e.migration_ntc),
        sum(epochs, |e| e.serving_ntc + e.migration_ntc),
    )
}

/// The mean over epochs of the report's Eq. 4 savings percentage.
pub fn savings_pct(epochs: &[EpochReport]) -> f64 {
    if epochs.is_empty() {
        return 0.0;
    }
    epochs.iter().map(|e| e.savings_percent).sum::<f64>() / epochs.len() as f64
}

/// Every epoch must account for each request exactly once:
/// `offered == admitted + shed`, `reads_issued == reads_served +
/// reads_lost` and `writes_issued == writes_committed + writes_lost`.
/// Returns one message per violated identity.
pub fn conservation_errors(report: &ServiceReport) -> Vec<String> {
    let mut errors = Vec::new();
    for e in &report.epochs {
        if e.offered != e.admitted + e.shed {
            errors.push(format!(
                "epoch {}: offered {} != admitted {} + shed {}",
                e.epoch, e.offered, e.admitted, e.shed
            ));
        }
        if e.reads_issued != e.reads_served + e.reads_lost {
            errors.push(format!(
                "epoch {}: reads issued {} != served {} + lost {}",
                e.epoch, e.reads_issued, e.reads_served, e.reads_lost
            ));
        }
        if e.writes_issued != e.writes_committed + e.writes_lost {
            errors.push(format!(
                "epoch {}: writes issued {} != committed {} + lost {}",
                e.epoch, e.writes_issued, e.writes_committed, e.writes_lost
            ));
        }
    }
    errors
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest of the usual percentiles that has at least ten samples
/// beyond it, as `(percentile, nearest-rank value)`; `None` for fewer than
/// 20 samples.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p: f64| {
            let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
            (n >= rank + 10).then(|| (p, sorted[rank - 1]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(index: usize) -> EpochReport {
        EpochReport {
            epoch: index,
            night: false,
            adapted_objects: 0,
            rebuilt: false,
            hot_promotions: 0,
            hot_demotions: 0,
            serving_ntc: 900,
            migration_ntc: 100,
            migration_planned: 2,
            migration_installed: 2,
            migration_deallocated: 0,
            migration_deferred: 0,
            migration_retries: 1,
            offered: 100,
            admitted: 90,
            shed: 10,
            reads_issued: 80,
            reads_served: 75,
            reads_stale: 3,
            reads_lost: 5,
            writes_issued: 10,
            writes_committed: 9,
            writes_lost: 1,
            replicas: 12,
            savings_percent: 40.0,
            crashes: 0,
            messages_lost: 0,
            sim_events: 1000,
            completion_time: 256,
        }
    }

    fn report(mut epochs: Vec<EpochReport>) -> ServiceReport {
        epochs[1].savings_percent = 20.0;
        epochs[1].serving_ntc = 1900;
        ServiceReport {
            policy: "monitor".into(),
            seed: 1,
            period: 256,
            admission_limit: 0,
            night_every: 0,
            totals: ServiceReport::tally(&epochs, 0, 0),
            epochs,
            competitive_ratio: 0.0,
        }
    }

    fn sample() -> ServiceReport {
        report(vec![epoch(0), epoch(1)])
    }

    #[test]
    fn served_frac_counts_shed_and_lost_as_failed() {
        // (75 + 9) done per 100 offered in each epoch.
        assert_eq!(served_frac(&sample().epochs), 0.84);
    }

    #[test]
    fn ntc_per_req_bills_serving_and_migration() {
        // (900 + 100) + (1900 + 100) over 200 offered.
        assert_eq!(ntc_per_req(&sample().epochs), 15.0);
        assert_eq!(migration_ntc_share(&sample().epochs), 200.0 / 3000.0);
    }

    #[test]
    fn stale_frac_is_over_served_reads() {
        assert_eq!(stale_frac(&sample().epochs), 6.0 / 150.0);
    }

    #[test]
    fn savings_pct_is_the_epoch_mean() {
        assert_eq!(savings_pct(&sample().epochs), 30.0);
    }

    #[test]
    fn conservation_gate_names_each_broken_identity() {
        assert!(conservation_errors(&sample()).is_empty());
        let mut bad = epoch(1);
        bad.shed = 9;
        bad.reads_lost = 4;
        let errors = conservation_errors(&report(vec![epoch(0), bad]));
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].starts_with("epoch 1: offered"));
        assert!(errors[1].starts_with("epoch 1: reads"));
    }

    #[test]
    fn empty_denominators_give_zero() {
        let mut r = sample();
        for e in &mut r.epochs {
            e.offered = 0;
            e.reads_served = 0;
        }
        assert_eq!(served_frac(&r.epochs), 0.0);
        assert_eq!(stale_frac(&r.epochs), 0.0);
        assert_eq!(savings_pct(&[]), 0.0);
    }

    #[test]
    fn pooled_reports_weigh_epochs_by_requests() {
        // Two runs pool into one epoch list: a busy run's NTC per request
        // weighs by its requests, not per run.
        let mut busy = epoch(2);
        busy.offered = 300;
        busy.admitted = 290;
        busy.serving_ntc = 4900;
        let pooled: Vec<EpochReport> = sample().epochs.into_iter().chain([busy]).collect();
        assert_eq!(ntc_per_req(&pooled), (1000.0 + 2000.0 + 5000.0) / 500.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn wal_tail_keeps_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 leaves 5 beyond, p90 leaves 10.
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&twenty[..19]), None);
    }
}
