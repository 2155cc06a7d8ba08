//! Demand forecasting for prediction-driven serve policies.
//!
//! The AGRA monitor is reactive: it retunes from the demand it has already
//! seen. The predictive policy family instead forecasts the next epoch's
//! demand and hands the *forecast* to the same retune machinery, following
//! the online-algorithms-with-predictions framing of Zuo, Tang & Lee
//! (2024): a good forecaster lets the online policy approach the
//! clairvoyant optimum, while a bad one must not make it much worse than
//! the reactive baseline.
//!
//! One [`DemandPredictor`] serves both forecaster kinds, in pure integer /
//! fixed-point arithmetic so forecasts are bitwise identical across
//! platforms, thread counts, and crash/recovery cycles:
//!
//! * **EWMA** — exponentially weighted moving average in Q10 fixed point;
//! * **windowed linear regression** — integer least-squares slope over the
//!   trailing demand window, extrapolated one epoch ahead. This is the only
//!   forecaster that can see a ramp *before* its peak.
//!
//! The forecaster tracks per-object read demand; the serve loop uses the
//! forecast to shape the pattern handed to the monitor. State snapshots
//! ([`PredictSnapshot`]) ride the WAL so a recovered run resumes with the
//! exact forecaster state of the crashed one.

use std::collections::VecDeque;

/// Fixed-point shift of the EWMA (Q10).
const FP: u32 = 10;

/// Which forecaster a predictive policy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Forecast = fixed-point EWMA of the window.
    Ewma,
    /// Forecast = last value plus the least-squares slope of the window.
    Regression,
}

/// Demand window depth in epochs (also the regression span).
pub(crate) const WINDOW: usize = 4;
/// EWMA weight of the newest observation, in percent.
const ALPHA_PCT: u64 = 60;

/// A demand forecaster over the trailing per-object demand window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandPredictor {
    kind: PredictorKind,
    windows: VecDeque<Vec<u64>>,
    ewma: Vec<u64>,
}

impl DemandPredictor {
    /// Creates a cold forecaster of the given kind.
    pub fn new(kind: PredictorKind, num_objects: usize) -> Self {
        DemandPredictor {
            kind,
            windows: VecDeque::new(),
            ewma: vec![0; num_objects],
        }
    }

    /// Feeds one epoch of realized per-object read demand.
    pub fn observe(&mut self, demand: &[u64]) {
        let first = self.windows.is_empty();
        if self.windows.len() == WINDOW {
            self.windows.pop_front();
        }
        self.windows.push_back(demand.to_vec());
        for (e, &d) in self.ewma.iter_mut().zip(demand) {
            if first {
                // Seed at full value so a cold forecaster degrades to
                // last-value instead of under-predicting by (100 - alpha)%.
                *e = d << FP;
            } else {
                *e = (ALPHA_PCT * (d << FP) + (100 - ALPHA_PCT) * *e) / 100;
            }
        }
    }

    /// Forecasts the next epoch's per-object read demand.
    pub fn forecast(&self) -> Vec<u64> {
        match self.kind {
            PredictorKind::Ewma => self.ewma.iter().map(|e| e >> FP).collect(),
            PredictorKind::Regression => (0..self.ewma.len())
                .map(|k| regress_next(&self.windows, k))
                .collect(),
        }
    }

    /// Captures the forecaster state for the WAL; the caller supplies the
    /// rendered deferred-candidate scheme, if one is parked.
    pub fn snapshot(&self, deferred: Option<Vec<u8>>) -> PredictSnapshot {
        PredictSnapshot {
            windows: self.windows.iter().cloned().collect(),
            ewma: self.ewma.clone(),
            deferred,
        }
    }

    /// Rebuilds a forecaster from a WAL snapshot (the `deferred` field is
    /// the caller's to interpret).
    pub fn restore(kind: PredictorKind, snap: &PredictSnapshot) -> Self {
        DemandPredictor {
            kind,
            windows: snap.windows.iter().cloned().collect(),
            ewma: snap.ewma.clone(),
        }
    }
}

/// Least-squares one-step extrapolation of one object's series in the ring.
///
/// The slope is `(L·Σxy − Σx·Σy) / (L·Σx² − (Σx)²)` with integer division
/// truncating toward zero; the forecast is the last value plus the slope,
/// clamped at zero. With fewer than two observations it degrades to the
/// last value.
fn regress_next(windows: &VecDeque<Vec<u64>>, index: usize) -> u64 {
    let len = windows.len();
    let last = windows.back().map_or(0, |w| w[index]);
    if len < 2 {
        return last;
    }
    let l = len as i128;
    let sum_x = l * (l - 1) / 2;
    let sum_x2 = (l - 1) * l * (2 * l - 1) / 6;
    let mut sum_y: i128 = 0;
    let mut sum_xy: i128 = 0;
    for (t, w) in windows.iter().enumerate() {
        let y = w[index] as i128;
        sum_y += y;
        sum_xy += t as i128 * y;
    }
    let den = l * sum_x2 - sum_x * sum_x;
    let slope = (l * sum_xy - sum_x * sum_y) / den;
    let forecast = last as i128 + slope;
    forecast.clamp(0, u64::MAX as i128) as u64
}

/// Forecaster state as journaled to the WAL.
///
/// `deferred` carries the scheme text of a retune the payback gate has
/// parked, so a recovered run re-evaluates exactly the candidate the
/// crashed run was holding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictSnapshot {
    /// Trailing per-object demand window, oldest first.
    pub windows: Vec<Vec<u64>>,
    /// Per-object EWMA in Q10 fixed point.
    pub ewma: Vec<u64>,
    /// Scheme text of a deferred retune candidate, if any.
    pub deferred: Option<Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [PredictorKind; 2] = [PredictorKind::Ewma, PredictorKind::Regression];

    fn feed(kind: PredictorKind, series: &[&[u64]]) -> DemandPredictor {
        let mut p = DemandPredictor::new(kind, series[0].len());
        for epoch in series {
            p.observe(epoch);
        }
        p
    }

    #[test]
    fn cold_forecasters_degrade_to_last_value() {
        for kind in KINDS {
            let p = feed(kind, &[&[10, 40]]);
            assert_eq!(p.forecast(), vec![10, 40], "{kind:?}");
        }
        let cold = DemandPredictor::new(PredictorKind::Regression, 3);
        assert_eq!(cold.forecast(), vec![0, 0, 0]);
    }

    #[test]
    fn regression_extrapolates_a_ramp() {
        let p = feed(PredictorKind::Regression, &[&[10], &[20], &[30], &[40]]);
        assert_eq!(p.forecast(), vec![50]);
        // A falling ramp is clamped at zero rather than wrapping.
        let p = feed(PredictorKind::Regression, &[&[20], &[10], &[2]]);
        assert_eq!(p.forecast(), vec![0]);
    }

    #[test]
    fn ewma_tracks_but_lags_a_step() {
        let p = feed(PredictorKind::Ewma, &[&[100], &[100], &[200]]);
        let f = p.forecast()[0];
        assert!(f > 100 && f < 200, "forecast {f}");
    }

    #[test]
    fn windows_stay_bounded() {
        let mut p = DemandPredictor::new(PredictorKind::Regression, 1);
        for t in 0..10u64 {
            p.observe(&[t * 2]);
        }
        let snap = p.snapshot(None);
        assert_eq!(snap.windows.len(), WINDOW);
        assert_eq!(p.forecast(), vec![20]);
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        for kind in KINDS {
            let p = feed(kind, &[&[5, 9], &[7, 3], &[8, 1]]);
            let snap = p.snapshot(Some(b"scheme".to_vec()));
            let q = DemandPredictor::restore(kind, &snap);
            assert_eq!(p, q, "{kind:?}");
            assert_eq!(p.forecast(), q.forecast());
            assert_eq!(snap.deferred.as_deref(), Some(&b"scheme"[..]));
        }
    }

    #[test]
    fn identical_feeds_forecast_identically() {
        let a = feed(PredictorKind::Ewma, &[&[13, 7], &[29, 5], &[31, 2]]);
        let b = feed(PredictorKind::Ewma, &[&[13, 7], &[29, 5], &[31, 2]]);
        assert_eq!(a.forecast(), b.forecast());
    }
}
