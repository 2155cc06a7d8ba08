//! Demand forecasting for prediction-driven serve policies.
//!
//! The AGRA monitor is reactive: it retunes from the demand it has already
//! seen. The predictive policy family instead forecasts the next epoch's
//! demand and hands the *forecast* to the retune machinery, following the
//! online-algorithms-with-predictions framing of Zuo, Tang & Lee (2024):
//! a good forecaster lets the online policy approach the clairvoyant
//! optimum, while a bad one must not make it much worse than the reactive
//! baseline.
//!
//! Three forecasters are provided behind the [`Predictor`] trait, all pure
//! integer / fixed-point arithmetic so forecasts are bitwise identical
//! across platforms, thread counts, and crash/recovery cycles:
//!
//! * **last-value** — tomorrow looks like today (the implicit model of the
//!   reactive monitor, included as the degenerate baseline);
//! * **EWMA** — exponentially weighted moving average in Q10 fixed point,
//!   the same representation as the hot-key detector;
//! * **windowed linear regression** — integer least-squares slope over the
//!   trailing demand window, extrapolated one epoch ahead. This is the only
//!   forecaster that can see a ramp *before* its peak.
//!
//! Every forecaster tracks per-object demand and per-site aggregate demand
//! side by side; the serve loop uses object forecasts to shape the pattern
//! handed to the monitor and site aggregates for pre-staging replica
//! boosts. State snapshots ([`PredictSnapshot`]) ride the WAL (format v3)
//! so a recovered run resumes with the exact forecaster state of the
//! crashed one.

use std::collections::VecDeque;

use drp_core::CoreError;

/// Fixed-point shift shared with the hot-key detector (Q10).
const FP: u32 = 10;

/// Which forecaster a predictive policy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Forecast = the most recent observation.
    LastValue,
    /// Forecast = fixed-point EWMA of the window.
    Ewma,
    /// Forecast = last value plus the least-squares slope of the window.
    Regression,
}

impl PredictorKind {
    /// Short name used in reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::LastValue => "last-value",
            PredictorKind::Ewma => "ewma",
            PredictorKind::Regression => "regression",
        }
    }
}

/// Knobs for the predictive policy family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictConfig {
    /// Demand window depth in epochs (also the regression span).
    pub window: usize,
    /// EWMA weight of the newest observation, in percent (1–100).
    pub alpha_pct: u64,
    /// A retune is accepted only if its predicted per-epoch saving repays
    /// the migration transfer cost within this many epochs.
    pub payback_epochs: u64,
}

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig {
            window: 4,
            alpha_pct: 60,
            payback_epochs: 2,
        }
    }
}

impl PredictConfig {
    /// Checks knob ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInstance`] naming the offending knob.
    pub fn validate(&self) -> drp_core::Result<()> {
        if self.window < 2 {
            return Err(CoreError::InvalidInstance {
                reason: format!("predict window {} must be at least 2", self.window),
            });
        }
        if self.alpha_pct == 0 || self.alpha_pct > 100 {
            return Err(CoreError::InvalidInstance {
                reason: format!("predict alpha {}% out of [1, 100]", self.alpha_pct),
            });
        }
        if self.payback_epochs == 0 {
            return Err(CoreError::InvalidInstance {
                reason: "predict payback horizon must be at least 1 epoch".into(),
            });
        }
        Ok(())
    }
}

/// A demand forecaster over per-object and per-site aggregate windows.
pub trait Predictor {
    /// Feeds one epoch of realized demand (reads per object, reads per
    /// site).
    fn observe(&mut self, objects: &[u64], sites: &[u64]);
    /// Forecasts the next epoch's per-object demand.
    fn forecast_objects(&self) -> Vec<u64>;
    /// Forecasts the next epoch's per-site aggregate demand.
    fn forecast_sites(&self) -> Vec<u64>;
}

/// Shared window/EWMA state behind every forecaster.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DemandState {
    window: usize,
    alpha_pct: u64,
    windows: VecDeque<Vec<u64>>,
    ewma: Vec<u64>,
    site_windows: VecDeque<Vec<u64>>,
    site_ewma: Vec<u64>,
}

impl DemandState {
    fn new(cfg: PredictConfig, num_objects: usize, num_sites: usize) -> Self {
        DemandState {
            window: cfg.window,
            alpha_pct: cfg.alpha_pct,
            windows: VecDeque::new(),
            ewma: vec![0; num_objects],
            site_windows: VecDeque::new(),
            site_ewma: vec![0; num_sites],
        }
    }

    fn observe(&mut self, objects: &[u64], sites: &[u64]) {
        let first = self.windows.is_empty();
        push_window(&mut self.windows, objects, self.window);
        push_window(&mut self.site_windows, sites, self.window);
        update_ewma(&mut self.ewma, objects, self.alpha_pct, first);
        update_ewma(&mut self.site_ewma, sites, self.alpha_pct, first);
    }

    fn last(windows: &VecDeque<Vec<u64>>, len: usize) -> Vec<u64> {
        windows.back().cloned().unwrap_or_else(|| vec![0; len])
    }
}

fn push_window(ring: &mut VecDeque<Vec<u64>>, demand: &[u64], depth: usize) {
    if ring.len() == depth {
        ring.pop_front();
    }
    ring.push_back(demand.to_vec());
}

fn update_ewma(ewma: &mut [u64], demand: &[u64], alpha_pct: u64, first: bool) {
    for (e, &d) in ewma.iter_mut().zip(demand) {
        if first {
            // Seed at full value so a cold forecaster degrades to
            // last-value instead of under-predicting by (100 - alpha)%.
            *e = d << FP;
        } else {
            *e = (alpha_pct * (d << FP) + (100 - alpha_pct) * *e) / 100;
        }
    }
}

/// Least-squares one-step extrapolation of one series in the ring.
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

macro_rules! forecaster {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name {
            state: DemandState,
        }

        impl $name {
            /// Creates a cold forecaster for the given instance shape.
            pub fn new(cfg: PredictConfig, num_objects: usize, num_sites: usize) -> Self {
                $name {
                    state: DemandState::new(cfg, num_objects, num_sites),
                }
            }
        }
    };
}

forecaster!(
    /// Forecasts the next epoch as an exact repeat of the last one.
    LastValuePredictor
);
forecaster!(
    /// Forecasts with a Q10 fixed-point exponentially weighted average.
    EwmaPredictor
);
forecaster!(
    /// Forecasts by extrapolating the windowed least-squares trend.
    RegressionPredictor
);

impl Predictor for LastValuePredictor {
    fn observe(&mut self, objects: &[u64], sites: &[u64]) {
        self.state.observe(objects, sites);
    }

    fn forecast_objects(&self) -> Vec<u64> {
        DemandState::last(&self.state.windows, self.state.ewma.len())
    }

    fn forecast_sites(&self) -> Vec<u64> {
        DemandState::last(&self.state.site_windows, self.state.site_ewma.len())
    }
}

impl Predictor for EwmaPredictor {
    fn observe(&mut self, objects: &[u64], sites: &[u64]) {
        self.state.observe(objects, sites);
    }

    fn forecast_objects(&self) -> Vec<u64> {
        self.state.ewma.iter().map(|e| e >> FP).collect()
    }

    fn forecast_sites(&self) -> Vec<u64> {
        self.state.site_ewma.iter().map(|e| e >> FP).collect()
    }
}

impl Predictor for RegressionPredictor {
    fn observe(&mut self, objects: &[u64], sites: &[u64]) {
        self.state.observe(objects, sites);
    }

    fn forecast_objects(&self) -> Vec<u64> {
        (0..self.state.ewma.len())
            .map(|k| regress_next(&self.state.windows, k))
            .collect()
    }

    fn forecast_sites(&self) -> Vec<u64> {
        (0..self.state.site_ewma.len())
            .map(|i| regress_next(&self.state.site_windows, i))
            .collect()
    }
}

/// Forecaster state as journaled to the WAL (since format v3).
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
    /// Trailing per-site aggregate demand window, oldest first.
    pub site_windows: Vec<Vec<u64>>,
    /// Per-site EWMA in Q10 fixed point.
    pub site_ewma: Vec<u64>,
    /// Scheme text of a deferred retune candidate, if any.
    pub deferred: Option<Vec<u8>>,
}

/// A snapshot-able forecaster of any [`PredictorKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DemandPredictor {
    /// Last-value forecaster.
    LastValue(LastValuePredictor),
    /// EWMA forecaster.
    Ewma(EwmaPredictor),
    /// Windowed-regression forecaster.
    Regression(RegressionPredictor),
}

impl DemandPredictor {
    /// Creates a cold forecaster of the given kind.
    pub fn new(
        kind: PredictorKind,
        cfg: PredictConfig,
        num_objects: usize,
        num_sites: usize,
    ) -> Self {
        match kind {
            PredictorKind::LastValue => {
                DemandPredictor::LastValue(LastValuePredictor::new(cfg, num_objects, num_sites))
            }
            PredictorKind::Ewma => {
                DemandPredictor::Ewma(EwmaPredictor::new(cfg, num_objects, num_sites))
            }
            PredictorKind::Regression => {
                DemandPredictor::Regression(RegressionPredictor::new(cfg, num_objects, num_sites))
            }
        }
    }

    /// The forecaster's kind.
    pub fn kind(&self) -> PredictorKind {
        match self {
            DemandPredictor::LastValue(_) => PredictorKind::LastValue,
            DemandPredictor::Ewma(_) => PredictorKind::Ewma,
            DemandPredictor::Regression(_) => PredictorKind::Regression,
        }
    }

    fn state(&self) -> &DemandState {
        match self {
            DemandPredictor::LastValue(p) => &p.state,
            DemandPredictor::Ewma(p) => &p.state,
            DemandPredictor::Regression(p) => &p.state,
        }
    }

    fn state_mut(&mut self) -> &mut DemandState {
        match self {
            DemandPredictor::LastValue(p) => &mut p.state,
            DemandPredictor::Ewma(p) => &mut p.state,
            DemandPredictor::Regression(p) => &mut p.state,
        }
    }

    /// Captures the forecaster state for the WAL; the caller supplies the
    /// rendered deferred-candidate scheme, if one is parked.
    pub fn snapshot(&self, deferred: Option<Vec<u8>>) -> PredictSnapshot {
        let state = self.state();
        PredictSnapshot {
            windows: state.windows.iter().cloned().collect(),
            ewma: state.ewma.clone(),
            site_windows: state.site_windows.iter().cloned().collect(),
            site_ewma: state.site_ewma.clone(),
            deferred,
        }
    }

    /// Rebuilds a forecaster from a WAL snapshot (the `deferred` field is
    /// the caller's to interpret).
    pub fn restore(kind: PredictorKind, cfg: PredictConfig, snap: &PredictSnapshot) -> Self {
        let mut predictor = DemandPredictor::new(kind, cfg, snap.ewma.len(), snap.site_ewma.len());
        let state = predictor.state_mut();
        state.windows = snap.windows.iter().cloned().collect();
        state.ewma = snap.ewma.clone();
        state.site_windows = snap.site_windows.iter().cloned().collect();
        state.site_ewma = snap.site_ewma.clone();
        predictor
    }
}

impl Predictor for DemandPredictor {
    fn observe(&mut self, objects: &[u64], sites: &[u64]) {
        match self {
            DemandPredictor::LastValue(p) => p.observe(objects, sites),
            DemandPredictor::Ewma(p) => p.observe(objects, sites),
            DemandPredictor::Regression(p) => p.observe(objects, sites),
        }
    }

    fn forecast_objects(&self) -> Vec<u64> {
        match self {
            DemandPredictor::LastValue(p) => p.forecast_objects(),
            DemandPredictor::Ewma(p) => p.forecast_objects(),
            DemandPredictor::Regression(p) => p.forecast_objects(),
        }
    }

    fn forecast_sites(&self) -> Vec<u64> {
        match self {
            DemandPredictor::LastValue(p) => p.forecast_sites(),
            DemandPredictor::Ewma(p) => p.forecast_sites(),
            DemandPredictor::Regression(p) => p.forecast_sites(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(kind: PredictorKind, series: &[&[u64]]) -> DemandPredictor {
        let sites = vec![0u64; 2];
        let mut p = DemandPredictor::new(kind, PredictConfig::default(), series[0].len(), 2);
        for epoch in series {
            p.observe(epoch, &sites);
        }
        p
    }

    #[test]
    fn cold_forecasters_degrade_to_last_value() {
        for kind in [
            PredictorKind::LastValue,
            PredictorKind::Ewma,
            PredictorKind::Regression,
        ] {
            let p = feed(kind, &[&[10, 40]]);
            assert_eq!(p.forecast_objects(), vec![10, 40], "{}", kind.name());
        }
        let cold = DemandPredictor::new(PredictorKind::Regression, PredictConfig::default(), 3, 2);
        assert_eq!(cold.forecast_objects(), vec![0, 0, 0]);
    }

    #[test]
    fn regression_extrapolates_a_ramp() {
        let p = feed(PredictorKind::Regression, &[&[10], &[20], &[30], &[40]]);
        assert_eq!(p.forecast_objects(), vec![50]);
        // A falling ramp is clamped at zero rather than wrapping.
        let p = feed(PredictorKind::Regression, &[&[20], &[10], &[2]]);
        assert_eq!(p.forecast_objects(), vec![0]);
    }

    #[test]
    fn ewma_tracks_but_lags_a_step() {
        let p = feed(PredictorKind::Ewma, &[&[100], &[100], &[200]]);
        let f = p.forecast_objects()[0];
        assert!(f > 100 && f < 200, "forecast {f}");
        // Last-value jumps straight to the step.
        let p = feed(PredictorKind::LastValue, &[&[100], &[100], &[200]]);
        assert_eq!(p.forecast_objects(), vec![200]);
    }

    #[test]
    fn windows_stay_bounded_and_sites_are_tracked() {
        let cfg = PredictConfig {
            window: 3,
            ..PredictConfig::default()
        };
        let mut p = DemandPredictor::new(PredictorKind::Regression, cfg, 1, 2);
        for t in 0..10u64 {
            p.observe(&[t], &[t * 2, t * 3]);
        }
        let snap = p.snapshot(None);
        assert_eq!(snap.windows.len(), 3);
        assert_eq!(snap.site_windows.len(), 3);
        assert_eq!(p.forecast_sites(), vec![20, 30]);
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        for kind in [
            PredictorKind::LastValue,
            PredictorKind::Ewma,
            PredictorKind::Regression,
        ] {
            let p = feed(kind, &[&[5, 9], &[7, 3], &[8, 1]]);
            let snap = p.snapshot(Some(b"scheme".to_vec()));
            let q = DemandPredictor::restore(kind, PredictConfig::default(), &snap);
            assert_eq!(p, q, "{}", kind.name());
            assert_eq!(p.forecast_objects(), q.forecast_objects());
            assert_eq!(snap.deferred.as_deref(), Some(&b"scheme"[..]));
        }
    }

    #[test]
    fn identical_feeds_forecast_identically() {
        let a = feed(PredictorKind::Ewma, &[&[13, 7], &[29, 5], &[31, 2]]);
        let b = feed(PredictorKind::Ewma, &[&[13, 7], &[29, 5], &[31, 2]]);
        assert_eq!(a.forecast_objects(), b.forecast_objects());
        assert_eq!(a.forecast_sites(), b.forecast_sites());
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let bad = PredictConfig {
            window: 1,
            ..PredictConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = PredictConfig {
            alpha_pct: 0,
            ..PredictConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = PredictConfig {
            alpha_pct: 101,
            ..PredictConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = PredictConfig {
            payback_epochs: 0,
            ..PredictConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(PredictConfig::default().validate().is_ok());
    }
}
