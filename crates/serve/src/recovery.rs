//! Crash recovery: rebuilding the serving loop from its write-ahead log.
//!
//! Recovery is *commit-point truncation plus deterministic re-run*:
//!
//! 1. [`crate::wal::decode_stream`] reads the log up to the first torn or
//!    corrupt frame (the damage is reported, never panicked on). A log
//!    torn inside its `RunStart` header holds no commit point at all: the
//!    runtime rewrites the header and starts the run over;
//! 2. the valid records — the log is `RunStart (EpochEnd Retune
//!    Checkpoint?)*`, commit points only — are scanned for the last
//!    **commit point**: the `RunStart` header, the latest `Checkpoint`, or
//!    the `Retune` record completing an epoch's `EpochEnd`/`Retune` pair.
//!    Everything after it (an `EpochEnd` whose `Retune` never landed) is
//!    dropped;
//! 3. the loop state at that commit point is reconstructed: committed
//!    epoch reports verbatim from the log, the realized/target schemes
//!    from their `drp-scheme v1` payloads, the monitor from its latest
//!    snapshot (or a deterministic bootstrap re-run when it never
//!    changed), and the drifting truth by replaying the seeded drift
//!    stream — no epoch is ever re-served from ambiguous state;
//! 4. the runtime re-runs the dropped partial epoch from scratch. Epochs
//!    are deterministic functions of the committed state, so the re-run
//!    is bitwise-identical to what the crashed run would have produced —
//!    the property the crash-simulation suite certifies.

use drp_algo::monitor::ReplicationMonitor;
use drp_core::format::{read_instance, read_scheme};
use drp_core::{CoreError, Problem, ReplicationScheme, ServeError};
use drp_ga::BitString;

use crate::hotkey::HotSnapshot;
use crate::predict::PredictSnapshot;
use crate::report::EpochReport;
use crate::runtime::{
    bootstrap, config_hash, hot_state, LoopState, PredictState, ServeConfig, ShiftPlan,
};
use crate::wal::{MonitorSnapshot, RetuneKind, WalOp, WalRecord, WAL_VERSION};

/// What recovery found in the log, reported alongside the resumed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The epoch the run resumed at (== committed epochs in the log).
    pub resumed_epoch: usize,
    /// Records past the last commit point that were dropped (the partial
    /// epoch re-run deterministically).
    pub dropped_records: usize,
    /// Damage found at the log's tail, if any.
    pub damage: Option<ServeError>,
}

/// The loop state at the last commit point plus the log bookkeeping the
/// durable runtime needs.
pub(crate) struct Recovered {
    pub resume: LoopState,
    /// Records kept (`records[..kept]` ends at the commit point); the
    /// runtime truncates the store to exactly these before resuming.
    pub kept: usize,
    /// Epochs committed since the latest checkpoint, so the resumed run
    /// checkpoints on the original cadence.
    pub since_checkpoint: usize,
    pub info: RecoveryInfo,
}

fn mismatch(reason: String) -> CoreError {
    ServeError::WalMismatch { reason }.into()
}

fn bits_from_words(len: u32, words: &[u64]) -> BitString {
    let len = len as usize;
    BitString::from_fn(len, |i| {
        words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    })
}

pub(crate) fn parse_scheme(
    text: &[u8],
    problem: &Problem,
    what: &str,
) -> drp_core::Result<ReplicationScheme> {
    let text = std::str::from_utf8(text)
        .map_err(|e| mismatch(format!("{what} scheme is not utf-8: {e}")))?;
    read_scheme(text, problem).map_err(|e| mismatch(format!("{what} scheme: {e}")))
}

/// Rejects a journaled forecaster or hot-path snapshot that does not fit
/// the `m`-site, `n`-object instance: each holds at most its window depth
/// of demand windows, every demand window, EWMA and promotion flag vector
/// must cover the `n` objects, and every boosted `(site, object)` must name
/// a cell of the instance. A CRC-valid log of another shape would otherwise
/// index out of bounds mid-run, resume forecasting only a prefix of the
/// objects, or keep a forecast window that never shrinks back to depth.
fn check_snapshot_shapes(
    hot: Option<&HotSnapshot>,
    predictor: Option<&PredictSnapshot>,
    m: usize,
    n: usize,
) -> drp_core::Result<()> {
    let covers_n = |what: &str, len: usize| {
        if len == n {
            Ok(())
        } else {
            Err(mismatch(format!(
                "{what} covers {len} objects, the instance has {n}"
            )))
        }
    };
    let within_depth = |what: &str, len: usize, depth: usize| {
        if len <= depth {
            Ok(())
        } else {
            Err(mismatch(format!(
                "{what} holds {len} windows, the depth is {depth}"
            )))
        }
    };
    if let Some(snap) = predictor {
        within_depth("forecaster", snap.windows.len(), crate::predict::WINDOW)?;
        for window in &snap.windows {
            covers_n("forecaster window", window.len())?;
        }
        covers_n("forecaster EWMA", snap.ewma.len())?;
    }
    if let Some(snap) = hot {
        within_depth(
            "hot-key detector",
            snap.windows.len(),
            crate::hotkey::WINDOW,
        )?;
        for window in &snap.windows {
            covers_n("hot-key window", window.len())?;
        }
        covers_n("hot-key EWMA", snap.ewma.len())?;
        covers_n("hot-key promotion flags", snap.promoted.len())?;
        let outside = |&&(i, k): &&(u64, u64)| i >= m as u64 || k >= n as u64;
        if let Some((i, k)) = snap.boosted.iter().find(outside) {
            return Err(mismatch(format!(
                "boosted replica (site {i}, object {k}) lies outside the {m}-site, {n}-object instance"
            )));
        }
    }
    Ok(())
}

fn rebuild_monitor(
    snapshot: &MonitorSnapshot,
    config: &ServeConfig,
    target: &ReplicationScheme,
) -> drp_core::Result<ReplicationMonitor> {
    let text = std::str::from_utf8(&snapshot.problem)
        .map_err(|e| mismatch(format!("monitor snapshot is not utf-8: {e}")))?;
    let reference = read_instance(text).map_err(|e| mismatch(format!("monitor snapshot: {e}")))?;
    let population = snapshot
        .population
        .iter()
        .map(|(len, words)| bits_from_words(*len, words))
        .collect();
    // The monitor's scheme always equals the journaled target under the
    // only policy that consults it after bootstrap (`Policy::Monitor`).
    ReplicationMonitor::from_parts(
        reference,
        config.monitor.clone(),
        target.clone(),
        population,
    )
}

/// Reconstructs the loop state from decoded WAL records.
///
/// # Errors
///
/// Returns [`ServeError::WalMismatch`] (wrapped in [`CoreError::Serve`])
/// when the log does not belong to `(problem, config)` or its record
/// sequence is inconsistent; propagates payload-parse failures the same
/// way. Tail damage is NOT an error — it arrives pre-classified in
/// `damage` and is passed through in the result's [`RecoveryInfo`].
pub(crate) fn recover(
    problem: &Problem,
    config: &ServeConfig,
    records: &[WalRecord],
    damage: Option<ServeError>,
) -> drp_core::Result<Recovered> {
    let Some(WalRecord::RunStart {
        version,
        seed,
        config_hash: hash,
    }) = records.first()
    else {
        return Err(mismatch("log does not begin with a RunStart header".into()));
    };
    if *version != WAL_VERSION {
        return Err(mismatch(format!(
            "log format v{version}, this runtime reads v{WAL_VERSION}"
        )));
    }
    if *seed != config.seed {
        return Err(mismatch(format!(
            "log was written by seed {seed}, resuming with seed {}",
            config.seed
        )));
    }
    let expected = config_hash(problem, config);
    if *hash != expected {
        return Err(mismatch(format!(
            "log config hash {hash:016x} != this run's {expected:016x}"
        )));
    }

    // Scan for the last commit point, collecting the committed epochs
    // after the latest checkpoint.
    let mut checkpoint: Option<&crate::wal::Checkpoint> = None;
    let mut committed: Vec<(&EpochReport, &[u8], &WalRecord)> = Vec::new();
    let mut pending_end: Option<(u64, &EpochReport, &[u8])> = None;
    let mut kept = 1usize;
    for (index, record) in records.iter().enumerate().skip(1) {
        match record {
            WalRecord::Checkpoint(cp) => {
                checkpoint = Some(cp);
                committed.clear();
                pending_end = None;
                kept = index + 1;
            }
            WalRecord::EpochEnd {
                epoch,
                report,
                realized,
            } => pending_end = Some((*epoch, report, realized)),
            WalRecord::Retune { epoch, .. } => {
                let Some((end_epoch, report, realized)) = pending_end.take() else {
                    return Err(mismatch(format!(
                        "Retune for epoch {epoch} without a matching EpochEnd"
                    )));
                };
                if end_epoch != *epoch {
                    return Err(mismatch(format!(
                        "Retune for epoch {epoch} follows EpochEnd for epoch {end_epoch}"
                    )));
                }
                committed.push((report, realized, record));
                kept = index + 1;
            }
            WalRecord::RunStart { .. } => {
                return Err(mismatch(format!("duplicate RunStart at record {index}")));
            }
        }
    }

    // Fold checkpoint + committed epochs into the resume state.
    let mut epochs: Vec<EpochReport> = Vec::new();
    let mut adaptations = 0u64;
    let mut rebuilds = 0u64;
    let mut realized_text: Option<&[u8]> = None;
    let mut target_text: Option<&[u8]> = None;
    let mut snapshot: Option<&MonitorSnapshot> = None;
    let mut hot_snap: Option<&HotSnapshot> = None;
    let mut pred_snap: Option<&PredictSnapshot> = None;
    let mut next_epoch = 0usize;
    if let Some(cp) = checkpoint {
        epochs = cp.reports.clone();
        adaptations = cp.adaptations;
        rebuilds = cp.rebuilds;
        realized_text = Some(&cp.realized);
        target_text = Some(&cp.target);
        snapshot = cp.monitor.as_ref();
        hot_snap = cp.hot.as_ref();
        pred_snap = cp.predictor.as_ref();
        next_epoch = usize::try_from(cp.next_epoch)
            .map_err(|_| mismatch("checkpoint next_epoch overflows usize".into()))?;
    }
    let since_checkpoint = committed.len();
    for (report, realized, retune) in committed {
        let WalRecord::Retune {
            epoch,
            kind,
            target,
            monitor,
            hot,
            predictor,
            ..
        } = retune
        else {
            unreachable!("committed list only holds Retune records");
        };
        if *epoch as usize != next_epoch || report.epoch != next_epoch {
            return Err(mismatch(format!(
                "epoch {epoch} committed out of order, expected {next_epoch}"
            )));
        }
        epochs.push(report.clone());
        realized_text = Some(realized);
        target_text = Some(target);
        match kind {
            RetuneKind::Keep => {}
            RetuneKind::Adapt => adaptations += 1,
            RetuneKind::Rebuild => rebuilds += 1,
        }
        if let Some(snap) = monitor {
            snapshot = Some(snap);
        }
        if let Some(h) = hot {
            hot_snap = Some(h);
        }
        if let Some(p) = predictor {
            pred_snap = Some(p);
        }
        next_epoch += 1;
    }
    if epochs.len() != next_epoch {
        return Err(mismatch(format!(
            "log holds {} epoch reports but commits {next_epoch} epochs",
            epochs.len()
        )));
    }

    // Re-derive the drifting truth: drift (plain or scenario-compiled) is
    // a seeded per-epoch stream, so replaying it is exact. Epoch
    // `next_epoch`'s own drift is applied by the loop itself.
    let shift_plan = ShiftPlan::new(problem, config)?;
    let mut truth = problem.clone();
    for e in 1..next_epoch {
        shift_plan.advance(&mut truth, config, e)?;
    }

    // Monitor: from its latest snapshot if the run ever changed it, else a
    // bootstrap re-run (same seed stream ⇒ bitwise-identical result).
    let (monitor, realized, target) = match (snapshot, realized_text, target_text) {
        (Some(snap), Some(realized), Some(target)) => {
            let target = parse_scheme(target, &truth, "target")?;
            let monitor = rebuild_monitor(snap, config, &target)?;
            (monitor, parse_scheme(realized, &truth, "realized")?, target)
        }
        (None, realized, target) => {
            let (monitor, scheme, _) = bootstrap(problem, config)?;
            let realized = match realized {
                Some(text) => parse_scheme(text, &truth, "realized")?,
                None => scheme.clone(),
            };
            let target = match target {
                Some(text) => parse_scheme(text, &truth, "target")?,
                None => scheme,
            };
            (monitor, realized, target)
        }
        (Some(_), _, _) => {
            return Err(mismatch(
                "monitor snapshot present without realized/target schemes".into(),
            ));
        }
    };

    check_snapshot_shapes(hot_snap, pred_snap, truth.num_sites(), truth.num_objects())?;
    Ok(Recovered {
        resume: LoopState {
            start_epoch: next_epoch,
            hot: hot_state(config, truth.num_objects(), hot_snap),
            predict: PredictState::new(config, &truth, pred_snap)?,
            truth,
            monitor,
            realized,
            target,
            epochs,
            adaptations,
            rebuilds,
        },
        kept,
        since_checkpoint,
        info: RecoveryInfo {
            resumed_epoch: next_epoch,
            dropped_records: records.len() - kept,
            damage,
        },
    })
}

/// Enumerates the deterministic crash points of a journaled run: for every
/// durable operation in `ops`, each WAL-record boundary within the op
/// (including "nothing written" and "all written"). Torn *mid-record*
/// prefixes are the other axis — any `(op, cut)` with `cut` off a
/// boundary — which the property tests sample.
///
/// Each point is `(op, cut)` as consumed by
/// [`TracingStore::contents_at`](crate::wal::TracingStore::contents_at).
pub fn crash_points(ops: &[WalOp]) -> Vec<(usize, usize)> {
    let mut points = Vec::new();
    for (index, op) in ops.iter().enumerate() {
        points.push((index, 0));
        if op.reset {
            // Atomic replace: the only other observable state is "all".
            points.push((index, op.bytes.len()));
            continue;
        }
        // Record boundaries inside the appended blob.
        let mut pos = 0usize;
        while pos + 8 <= op.bytes.len() {
            let len =
                u32::from_le_bytes(op.bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let end = pos + 8 + len;
            if end > op.bytes.len() {
                break;
            }
            points.push((index, end));
            pos = end;
        }
    }
    points.sort_unstable();
    points.dedup();
    points
}
