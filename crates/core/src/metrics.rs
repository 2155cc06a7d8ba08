use std::fmt;
use std::time::Duration;

use crate::{Problem, ReplicationScheme};

/// Summary of one solver run on one instance, in the units the paper
/// reports: NTC, % savings over the primary-only allocation, replicas
/// created and wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionReport {
    /// Name of the algorithm that produced the scheme.
    pub algorithm: String,
    /// Total network transfer cost `D` of the scheme.
    pub cost: u64,
    /// Percentage of NTC saved versus the primary-only allocation.
    pub savings_percent: f64,
    /// Replicas created beyond the mandatory primary copies.
    pub extra_replicas: usize,
    /// Wall-clock time of the solver run.
    pub elapsed: Duration,
}

impl SolutionReport {
    /// Builds a report by evaluating `scheme` against `problem`.
    pub fn evaluate(
        algorithm: impl Into<String>,
        problem: &Problem,
        scheme: &ReplicationScheme,
        elapsed: Duration,
    ) -> Self {
        Self {
            algorithm: algorithm.into(),
            cost: problem.total_cost(scheme),
            savings_percent: problem.savings_percent(scheme),
            extra_replicas: scheme.extra_replica_count(),
            elapsed,
        }
    }
}

impl fmt::Display for SolutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: cost={} savings={:.2}% replicas=+{} time={:.3}s",
            self.algorithm,
            self.cost,
            self.savings_percent,
            self.extra_replicas,
            self.elapsed.as_secs_f64()
        )
    }
}

/// Admission accounting for one ingested epoch, per site and in total.
///
/// Produced by the `drp-serve` ingestion front end: every offered request
/// is either admitted (handed to the epoch engine) or shed at the site's
/// admission limit, so `offered[i] == admitted[i] + shed[i]` holds for
/// every site — asserted by the ingestion property tests. All counts are
/// integral and independent of how many ingestion threads ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Requests the trace offered to each site this epoch.
    pub offered_by_site: Vec<u64>,
    /// Requests admitted into each site's epoch queue.
    pub admitted_by_site: Vec<u64>,
    /// Requests shed at each site's admission limit.
    pub shed_by_site: Vec<u64>,
    /// Batches the producer pulled from the trace stream.
    pub batches: u64,
}

impl IngestReport {
    /// Creates an all-zero report for `num_sites` sites.
    pub fn zeros(num_sites: usize) -> Self {
        Self {
            offered_by_site: vec![0; num_sites],
            admitted_by_site: vec![0; num_sites],
            shed_by_site: vec![0; num_sites],
            batches: 0,
        }
    }

    /// Total requests offered across all sites.
    pub fn offered(&self) -> u64 {
        self.offered_by_site.iter().sum()
    }

    /// Total requests admitted across all sites.
    pub fn admitted(&self) -> u64 {
        self.admitted_by_site.iter().sum()
    }

    /// Total requests shed across all sites.
    pub fn shed(&self) -> u64 {
        self.shed_by_site.iter().sum()
    }

    /// Does `offered == admitted + shed` hold at every site?
    pub fn balanced(&self) -> bool {
        self.offered_by_site.len() == self.admitted_by_site.len()
            && self.offered_by_site.len() == self.shed_by_site.len()
            && (0..self.offered_by_site.len())
                .all(|i| self.offered_by_site[i] == self.admitted_by_site[i] + self.shed_by_site[i])
    }
}

impl fmt::Display for IngestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ingest: offered={} admitted={} shed={} batches={}",
            self.offered(),
            self.admitted(),
            self.shed(),
            self.batches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SiteId;
    use drp_net::CostMatrix;

    #[test]
    fn evaluate_and_display() {
        let costs = CostMatrix::from_rows(2, vec![0, 2, 2, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![10, 10])
            .object(4, SiteId::new(0))
            .reads(vec![0, 5])
            .build()
            .unwrap();
        let s = ReplicationScheme::primary_only(&p);
        let report = SolutionReport::evaluate("test", &p, &s, Duration::from_millis(5));
        assert_eq!(report.cost, p.d_prime());
        assert_eq!(report.savings_percent, 0.0);
        assert_eq!(report.extra_replicas, 0);
        let text = report.to_string();
        assert!(text.contains("test") && text.contains("savings=0.00%"));
    }

    #[test]
    fn ingest_report_balances_and_displays() {
        let mut r = IngestReport::zeros(3);
        assert!(r.balanced());
        r.offered_by_site = vec![5, 0, 7];
        r.admitted_by_site = vec![5, 0, 4];
        r.shed_by_site = vec![0, 0, 3];
        r.batches = 2;
        assert!(r.balanced());
        assert_eq!(r.offered(), 12);
        assert_eq!(r.admitted(), 9);
        assert_eq!(r.shed(), 3);
        r.shed_by_site[0] = 1;
        assert!(!r.balanced());
        r.shed_by_site[0] = 0;
        let text = r.to_string();
        assert!(text.contains("offered=12") && text.contains("batches=2"));
    }
}
