//! The serving runtime's write-ahead log: length-prefixed, CRC-guarded
//! records plus periodic compacting checkpoints.
//!
//! # Record grammar
//!
//! Every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload := tag: u8, fields...
//! ```
//!
//! and the log is a `RunStart` header followed by one commit-point pair
//! per epoch:
//!
//! ```text
//! RunStart (EpochEnd Retune Checkpoint?)*
//!
//! EpochEnd                   the epoch's report + realized directory
//! Retune                     the boundary decision + next target; carries
//!                            a monitor snapshot when the decision changed
//!                            monitor state (the durable commit point)
//! Checkpoint?                full state; everything before it may be
//!                            dropped (compaction)
//! ```
//!
//! Each epoch's `EpochEnd`/`Retune` pair is written by one append, so a
//! durable run performs one append per epoch plus the header. An epoch is
//! durable once its `Retune` record is on disk — that record carries
//! everything the next epoch's decision depends on. A crash at any
//! earlier byte re-runs the epoch from the previous commit point, which is
//! safe because epochs are deterministic functions of the committed state.
//! Nothing that happens inside an epoch (admission drains, migration
//! fetches, retries, cutovers) is journaled: the re-run reproduces it.
//!
//! Integrity is per-record: a CRC or structural failure at record `i`
//! drops records `i..` (reported as [`ServeError::WalCorrupt`]); a frame
//! that ends mid-bytes is a torn write and drops only the torn tail
//! ([`ServeError::WalTruncated`]). Recovery never panics on either.

use std::io;
use std::path::{Path, PathBuf};

use drp_core::{CoreError, ServeError};

use crate::hotkey::HotSnapshot;
use crate::predict::PredictSnapshot;
use crate::report::EpochReport;

/// On-disk format version inside `RunStart`.
///
/// v5 drops the per-site demand windows and EWMAs from the
/// [`PredictSnapshot`]: no decision reads them. v4 journals commit points only: the per-epoch `EpochStart`,
/// `AdmissionDrain`, `MigrationStage`, `MigrationRetry`,
/// `MigrationInstall` and `Cutover` records are gone, and `Retune` no
/// longer repeats the adapted-object count its `EpochEnd` report carries.
/// v3 added the predictive policy family: an optional [`PredictSnapshot`]
/// (forecaster windows, EWMAs, and any deferred retune candidate) on
/// `Retune` and `Checkpoint`. v2 added the hot-object fast path:
/// `hot_promotions`/`hot_demotions` in every journaled [`EpochReport`] and
/// an optional [`HotSnapshot`] on `Retune` and `Checkpoint`. Older logs
/// are refused cleanly by recovery.
pub const WAL_VERSION: u32 = 5;

/// Durability knobs of the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalTuning {
    /// Write a compacting checkpoint every this many committed epochs.
    pub checkpoint_every: usize,
}

impl Default for WalTuning {
    fn default() -> Self {
        Self {
            checkpoint_every: 3,
        }
    }
}

impl WalTuning {
    /// Rejects configurations that would silently misbehave (a zero
    /// checkpoint interval means "never checkpoint, never compact" at
    /// best and a modulo-by-zero at worst).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInstance`] naming the bad knob.
    pub fn validate(&self) -> drp_core::Result<()> {
        if self.checkpoint_every == 0 {
            return Err(CoreError::InvalidInstance {
                reason: "WalTuning::checkpoint_every must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// How a boundary decision changed the target scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetuneKind {
    /// The scheme was kept (no drift past the threshold, or a static
    /// policy).
    Keep,
    /// A daytime AGRA adaptation replaced the target.
    Adapt,
    /// A nightly full GRA rebuild replaced the target.
    Rebuild,
}

impl RetuneKind {
    fn tag(self) -> u8 {
        match self {
            RetuneKind::Keep => 0,
            RetuneKind::Adapt => 1,
            RetuneKind::Rebuild => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, String> {
        Ok(match tag {
            0 => RetuneKind::Keep,
            1 => RetuneKind::Adapt,
            2 => RetuneKind::Rebuild,
            other => return Err(format!("unknown retune kind {other}")),
        })
    }
}

/// The replication monitor's internal state, serialized: the reference
/// instance (`drp-instance v1` text) and the carried GA population. The
/// monitor's scheme is not stored — it always equals the record's target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// `drp-instance v1` rendering of the reference statistics.
    pub problem: Vec<u8>,
    /// Population chromosomes as `(bit length, words)`.
    pub population: Vec<(u32, Vec<u64>)>,
}

/// A compacting checkpoint: the complete durable state at an epoch
/// boundary. Schemes are `drp-scheme v1` text.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The next epoch to run.
    pub next_epoch: u64,
    /// Daytime adaptations so far.
    pub adaptations: u64,
    /// Nightly rebuilds so far.
    pub rebuilds: u64,
    /// The realized directory.
    pub realized: Vec<u8>,
    /// The migration target.
    pub target: Vec<u8>,
    /// Monitor state (absent only if the run never snapshotted one —
    /// checkpoints written by the runtime always carry it).
    pub monitor: Option<MonitorSnapshot>,
    /// Hot-object detector state (present iff the policy runs the hot path).
    pub hot: Option<HotSnapshot>,
    /// Demand forecaster state (present iff the policy is predictive).
    pub predictor: Option<PredictSnapshot>,
    /// Reports of every committed epoch, in order.
    pub reports: Vec<EpochReport>,
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Log header: binds the log to a run.
    RunStart {
        /// Format version ([`WAL_VERSION`]).
        version: u32,
        /// The run's master seed.
        seed: u64,
        /// FNV hash of the full `ServeConfig` debug rendering.
        config_hash: u64,
    },
    /// The epoch finished serving; its report and realized directory.
    EpochEnd {
        /// Epoch index.
        epoch: u64,
        /// The epoch's full report.
        report: EpochReport,
        /// `drp-scheme v1` text of the realized directory.
        realized: Vec<u8>,
    },
    /// The boundary decision — the epoch's durable commit point.
    Retune {
        /// Epoch index.
        epoch: u64,
        /// What the decision did.
        kind: RetuneKind,
        /// `drp-scheme v1` text of the next target scheme.
        target: Vec<u8>,
        /// New monitor state when the decision changed it.
        monitor: Option<MonitorSnapshot>,
        /// Hot-object detector state after this boundary's observe/boost
        /// step (present iff the policy runs the hot path — the detector
        /// advances every boundary).
        hot: Option<HotSnapshot>,
        /// Demand forecaster state after this boundary's observe/forecast
        /// step (present iff the policy is predictive — the forecaster
        /// advances every boundary).
        predictor: Option<PredictSnapshot>,
    },
    /// A compacting checkpoint.
    Checkpoint(Checkpoint),
}

// ---------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 over `bytes` (IEEE polynomial, as used by zip/png).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

// ------------------------------------------------------- encode / decode

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("wal blob fits u32"));
        self.0.extend_from_slice(v);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(format!(
                "payload underrun: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ));
        };
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, String> {
        Ok(self.u8()? != 0)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn put_report(enc: &mut Enc, r: &EpochReport) {
    enc.u64(r.epoch as u64);
    enc.bool(r.night);
    enc.u64(r.adapted_objects as u64);
    enc.bool(r.rebuilt);
    enc.u64(r.hot_promotions);
    enc.u64(r.hot_demotions);
    enc.u64(r.serving_ntc);
    enc.u64(r.migration_ntc);
    enc.u64(r.migration_planned as u64);
    enc.u64(r.migration_installed as u64);
    enc.u64(r.migration_deallocated as u64);
    enc.u64(r.migration_deferred as u64);
    enc.u64(r.migration_retries);
    enc.u64(r.offered);
    enc.u64(r.admitted);
    enc.u64(r.shed);
    enc.u64(r.reads_issued);
    enc.u64(r.reads_served);
    enc.u64(r.reads_stale);
    enc.u64(r.reads_lost);
    enc.u64(r.writes_issued);
    enc.u64(r.writes_committed);
    enc.u64(r.writes_lost);
    enc.u64(r.replicas as u64);
    enc.f64(r.savings_percent);
    enc.u64(r.crashes);
    enc.u64(r.messages_lost);
    enc.u64(r.sim_events);
    enc.u64(r.completion_time);
}

fn take_report(dec: &mut Dec<'_>) -> Result<EpochReport, String> {
    Ok(EpochReport {
        epoch: dec.u64()? as usize,
        night: dec.bool()?,
        adapted_objects: dec.u64()? as usize,
        rebuilt: dec.bool()?,
        hot_promotions: dec.u64()?,
        hot_demotions: dec.u64()?,
        serving_ntc: dec.u64()?,
        migration_ntc: dec.u64()?,
        migration_planned: dec.u64()? as usize,
        migration_installed: dec.u64()? as usize,
        migration_deallocated: dec.u64()? as usize,
        migration_deferred: dec.u64()? as usize,
        migration_retries: dec.u64()?,
        offered: dec.u64()?,
        admitted: dec.u64()?,
        shed: dec.u64()?,
        reads_issued: dec.u64()?,
        reads_served: dec.u64()?,
        reads_stale: dec.u64()?,
        reads_lost: dec.u64()?,
        writes_issued: dec.u64()?,
        writes_committed: dec.u64()?,
        writes_lost: dec.u64()?,
        replicas: dec.u64()? as usize,
        savings_percent: dec.f64()?,
        crashes: dec.u64()?,
        messages_lost: dec.u64()?,
        sim_events: dec.u64()?,
        completion_time: dec.u64()?,
    })
}

fn put_monitor(enc: &mut Enc, snapshot: &Option<MonitorSnapshot>) {
    match snapshot {
        None => enc.bool(false),
        Some(s) => {
            enc.bool(true);
            enc.bytes(&s.problem);
            enc.u32(u32::try_from(s.population.len()).expect("population fits u32"));
            for (len, words) in &s.population {
                enc.u32(*len);
                enc.u32(u32::try_from(words.len()).expect("words fit u32"));
                for w in words {
                    enc.u64(*w);
                }
            }
        }
    }
}

fn take_monitor(dec: &mut Dec<'_>) -> Result<Option<MonitorSnapshot>, String> {
    if !dec.bool()? {
        return Ok(None);
    }
    let problem = dec.bytes()?;
    let count = dec.u32()? as usize;
    let mut population = Vec::with_capacity(count);
    for _ in 0..count {
        let len = dec.u32()?;
        let nwords = dec.u32()? as usize;
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(dec.u64()?);
        }
        population.push((len, words));
    }
    Ok(Some(MonitorSnapshot {
        problem,
        population,
    }))
}

fn put_hot(enc: &mut Enc, snapshot: &Option<HotSnapshot>) {
    match snapshot {
        None => enc.bool(false),
        Some(s) => {
            enc.bool(true);
            enc.u32(u32::try_from(s.windows.len()).expect("hot windows fit u32"));
            for w in &s.windows {
                enc.u32(u32::try_from(w.len()).expect("hot window fits u32"));
                for &v in w {
                    enc.u64(v);
                }
            }
            enc.u32(u32::try_from(s.ewma.len()).expect("hot ewma fits u32"));
            for &v in &s.ewma {
                enc.u64(v);
            }
            enc.u32(u32::try_from(s.promoted.len()).expect("hot flags fit u32"));
            for &p in &s.promoted {
                enc.bool(p);
            }
            enc.u32(u32::try_from(s.boosted.len()).expect("hot boosts fit u32"));
            for &(site, object) in &s.boosted {
                enc.u64(site);
                enc.u64(object);
            }
            enc.u64(s.promotions);
            enc.u64(s.demotions);
        }
    }
}

fn take_hot(dec: &mut Dec<'_>) -> Result<Option<HotSnapshot>, String> {
    if !dec.bool()? {
        return Ok(None);
    }
    let window_count = dec.u32()? as usize;
    let mut windows = Vec::with_capacity(window_count);
    for _ in 0..window_count {
        let len = dec.u32()? as usize;
        let mut w = Vec::with_capacity(len);
        for _ in 0..len {
            w.push(dec.u64()?);
        }
        windows.push(w);
    }
    let ewma_len = dec.u32()? as usize;
    let mut ewma = Vec::with_capacity(ewma_len);
    for _ in 0..ewma_len {
        ewma.push(dec.u64()?);
    }
    let flag_len = dec.u32()? as usize;
    let mut promoted = Vec::with_capacity(flag_len);
    for _ in 0..flag_len {
        promoted.push(dec.bool()?);
    }
    let boost_len = dec.u32()? as usize;
    let mut boosted = Vec::with_capacity(boost_len);
    for _ in 0..boost_len {
        let site = dec.u64()?;
        let object = dec.u64()?;
        boosted.push((site, object));
    }
    Ok(Some(HotSnapshot {
        windows,
        ewma,
        promoted,
        boosted,
        promotions: dec.u64()?,
        demotions: dec.u64()?,
    }))
}

fn put_u64_list(enc: &mut Enc, values: &[u64]) {
    enc.u32(u32::try_from(values.len()).expect("list fits u32"));
    for &v in values {
        enc.u64(v);
    }
}

fn take_u64_list(dec: &mut Dec<'_>) -> Result<Vec<u64>, String> {
    let len = dec.u32()? as usize;
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(dec.u64()?);
    }
    Ok(values)
}

fn put_predictor(enc: &mut Enc, snapshot: &Option<PredictSnapshot>) {
    match snapshot {
        None => enc.bool(false),
        Some(s) => {
            enc.bool(true);
            enc.u32(u32::try_from(s.windows.len()).expect("predict windows fit u32"));
            for w in &s.windows {
                put_u64_list(enc, w);
            }
            put_u64_list(enc, &s.ewma);
            match &s.deferred {
                None => enc.bool(false),
                Some(scheme) => {
                    enc.bool(true);
                    enc.bytes(scheme);
                }
            }
        }
    }
}

fn take_predictor(dec: &mut Dec<'_>) -> Result<Option<PredictSnapshot>, String> {
    if !dec.bool()? {
        return Ok(None);
    }
    let window_count = dec.u32()? as usize;
    let mut windows = Vec::with_capacity(window_count);
    for _ in 0..window_count {
        windows.push(take_u64_list(dec)?);
    }
    let ewma = take_u64_list(dec)?;
    let deferred = if dec.bool()? {
        Some(dec.bytes()?)
    } else {
        None
    };
    Ok(Some(PredictSnapshot {
        windows,
        ewma,
        deferred,
    }))
}

// Tags 2..=7 belonged to the v3 per-epoch observability records. They are
// not reused, so such a frame decodes as an unknown tag, never as a
// misparsed record of another kind.
const TAG_RUN_START: u8 = 1;
const TAG_EPOCH_END: u8 = 8;
const TAG_RETUNE: u8 = 9;
const TAG_CHECKPOINT: u8 = 10;

impl WalRecord {
    /// Encodes the record payload (without the frame header).
    fn encode_payload(&self) -> Vec<u8> {
        let mut enc = Enc(Vec::new());
        match self {
            WalRecord::RunStart {
                version,
                seed,
                config_hash,
            } => {
                enc.u8(TAG_RUN_START);
                enc.u32(*version);
                enc.u64(*seed);
                enc.u64(*config_hash);
            }
            WalRecord::EpochEnd {
                epoch,
                report,
                realized,
            } => {
                enc.u8(TAG_EPOCH_END);
                enc.u64(*epoch);
                put_report(&mut enc, report);
                enc.bytes(realized);
            }
            WalRecord::Retune {
                epoch,
                kind,
                target,
                monitor,
                hot,
                predictor,
            } => {
                enc.u8(TAG_RETUNE);
                enc.u64(*epoch);
                enc.u8(kind.tag());
                enc.bytes(target);
                put_monitor(&mut enc, monitor);
                put_hot(&mut enc, hot);
                put_predictor(&mut enc, predictor);
            }
            WalRecord::Checkpoint(cp) => {
                enc.u8(TAG_CHECKPOINT);
                enc.u64(cp.next_epoch);
                enc.u64(cp.adaptations);
                enc.u64(cp.rebuilds);
                enc.bytes(&cp.realized);
                enc.bytes(&cp.target);
                put_monitor(&mut enc, &cp.monitor);
                put_hot(&mut enc, &cp.hot);
                put_predictor(&mut enc, &cp.predictor);
                enc.u32(u32::try_from(cp.reports.len()).expect("reports fit u32"));
                for r in &cp.reports {
                    put_report(&mut enc, r);
                }
            }
        }
        enc.0
    }

    /// Encodes the record as a complete frame (`len`, `crc`, payload).
    pub fn frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("payload fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, String> {
        let mut dec = Dec {
            buf: payload,
            pos: 0,
        };
        let record = match dec.u8()? {
            TAG_RUN_START => WalRecord::RunStart {
                version: dec.u32()?,
                seed: dec.u64()?,
                config_hash: dec.u64()?,
            },
            TAG_EPOCH_END => WalRecord::EpochEnd {
                epoch: dec.u64()?,
                report: take_report(&mut dec)?,
                realized: dec.bytes()?,
            },
            TAG_RETUNE => WalRecord::Retune {
                epoch: dec.u64()?,
                kind: RetuneKind::from_tag(dec.u8()?)?,
                target: dec.bytes()?,
                monitor: take_monitor(&mut dec)?,
                hot: take_hot(&mut dec)?,
                predictor: take_predictor(&mut dec)?,
            },
            TAG_CHECKPOINT => {
                let next_epoch = dec.u64()?;
                let adaptations = dec.u64()?;
                let rebuilds = dec.u64()?;
                let realized = dec.bytes()?;
                let target = dec.bytes()?;
                let monitor = take_monitor(&mut dec)?;
                let hot = take_hot(&mut dec)?;
                let predictor = take_predictor(&mut dec)?;
                let count = dec.u32()? as usize;
                let mut reports = Vec::with_capacity(count);
                for _ in 0..count {
                    reports.push(take_report(&mut dec)?);
                }
                WalRecord::Checkpoint(Checkpoint {
                    next_epoch,
                    adaptations,
                    rebuilds,
                    realized,
                    target,
                    monitor,
                    hot,
                    predictor,
                    reports,
                })
            }
            other => return Err(format!("unknown record tag {other}")),
        };
        dec.finish()?;
        Ok(record)
    }
}

/// What [`decode_stream`] recovered from raw log bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedWal {
    /// Every record up to the first damage, in order.
    pub records: Vec<WalRecord>,
    /// Bytes of intact log (frame-aligned prefix).
    pub valid_bytes: usize,
    /// The damage that stopped the reader, if any. `WalTruncated` for a
    /// torn tail, `WalCorrupt` for a CRC/structural failure.
    pub damage: Option<ServeError>,
}

/// Decodes a raw byte log, stopping at the first torn or corrupt frame.
/// Never fails: damage is reported, the valid prefix is returned.
pub fn decode_stream(bytes: &[u8]) -> DecodedWal {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            return DecodedWal {
                records,
                valid_bytes: pos,
                damage: None,
            };
        }
        let index = records.len() as u64;
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            return DecodedWal {
                records,
                valid_bytes: pos,
                damage: Some(ServeError::WalTruncated {
                    record: index,
                    valid_bytes: pos as u64,
                    dropped_bytes: remaining as u64,
                }),
            };
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if remaining - 8 < len {
            return DecodedWal {
                records,
                valid_bytes: pos,
                damage: Some(ServeError::WalTruncated {
                    record: index,
                    valid_bytes: pos as u64,
                    dropped_bytes: remaining as u64,
                }),
            };
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return DecodedWal {
                records,
                valid_bytes: pos,
                damage: Some(ServeError::WalCorrupt {
                    record: index,
                    reason: "crc mismatch".into(),
                }),
            };
        }
        match WalRecord::decode_payload(payload) {
            Ok(record) => records.push(record),
            Err(reason) => {
                return DecodedWal {
                    records,
                    valid_bytes: pos,
                    damage: Some(ServeError::WalCorrupt {
                        record: index,
                        reason,
                    }),
                };
            }
        }
        pos += 8 + len;
    }
}

// --------------------------------------------------------------- stores

/// Where the log's bytes live. The runtime only needs three operations:
/// read everything back, append a blob, and atomically replace the whole
/// log (compaction after a checkpoint, tail truncation after recovery).
pub trait WalStore {
    /// Reads the full current contents.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the backing medium.
    fn load(&mut self) -> io::Result<Vec<u8>>;

    /// Appends `bytes` to the log.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the backing medium.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Replaces the whole log with `bytes`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the backing medium.
    fn reset(&mut self, bytes: &[u8]) -> io::Result<()>;
}

/// File-backed store: a single `wal.log` inside a directory.
#[derive(Debug)]
pub struct FileWalStore {
    path: PathBuf,
}

impl FileWalStore {
    /// Opens (creating the directory if needed) `<dir>/wal.log`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            path: dir.join("wal.log"),
        })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl WalStore for FileWalStore {
    fn load(&mut self) -> io::Result<Vec<u8>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        // Write-then-rename so a crash mid-compaction leaves either the
        // old log or the new one, never a half-written file.
        let tmp = self.path.with_extension("log.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &self.path)
    }
}

/// In-memory store, used by tests and the crash simulator.
#[derive(Debug, Clone, Default)]
pub struct MemWalStore {
    bytes: Vec<u8>,
}

impl MemWalStore {
    /// A store pre-loaded with `bytes` — the durable state "found on disk"
    /// after a simulated crash.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// The current contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl WalStore for MemWalStore {
    fn load(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.bytes.clone())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes = bytes.to_vec();
        Ok(())
    }
}

/// One durable operation a run performed, as seen by [`TracingStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOp {
    /// `true` for a [`WalStore::reset`] (compaction/truncation), `false`
    /// for an append.
    pub reset: bool,
    /// The bytes of the operation.
    pub bytes: Vec<u8>,
}

/// A store that records every durable operation: the crash simulator
/// replays the op history up to an arbitrary byte to reconstruct the
/// exact on-disk state a real crash would leave.
#[derive(Debug, Clone, Default)]
pub struct TracingStore {
    inner: MemWalStore,
    ops: Vec<WalOp>,
}

impl TracingStore {
    /// The recorded operation history.
    pub fn ops(&self) -> &[WalOp] {
        &self.ops
    }

    /// The final contents.
    pub fn bytes(&self) -> &[u8] {
        self.inner.bytes()
    }

    /// Reconstructs the store contents after `ops[..op]` completed fully
    /// and `ops[op]` wrote only its first `cut` bytes — the durable state
    /// at that crash point. A `reset` op that crashes mid-write keeps the
    /// *old* contents (the backing file store renames atomically).
    pub fn contents_at(&self, op: usize, cut: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        for done in &self.ops[..op] {
            if done.reset {
                bytes = done.bytes.clone();
            } else {
                bytes.extend_from_slice(&done.bytes);
            }
        }
        if let Some(partial) = self.ops.get(op) {
            let cut = cut.min(partial.bytes.len());
            if partial.reset {
                // Atomic replace: either nothing happened or all of it did.
                if cut == partial.bytes.len() {
                    bytes = partial.bytes.clone();
                }
            } else {
                bytes.extend_from_slice(&partial.bytes[..cut]);
            }
        }
        bytes
    }
}

impl WalStore for TracingStore {
    fn load(&mut self) -> io::Result<Vec<u8>> {
        self.inner.load()
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.ops.push(WalOp {
            reset: false,
            bytes: bytes.to_vec(),
        });
        self.inner.append(bytes)
    }

    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.ops.push(WalOp {
            reset: true,
            bytes: bytes.to_vec(),
        });
        self.inner.reset(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(epoch: usize) -> EpochReport {
        EpochReport {
            epoch,
            night: epoch % 2 == 1,
            adapted_objects: 2,
            rebuilt: false,
            hot_promotions: 1,
            hot_demotions: 0,
            serving_ntc: 1000 + epoch as u64,
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

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::RunStart {
                version: WAL_VERSION,
                seed: 7,
                config_hash: 0xdead_beef,
            },
            WalRecord::EpochEnd {
                epoch: 0,
                report: sample_report(0),
                realized: b"drp-scheme v1\n".to_vec(),
            },
            WalRecord::Retune {
                epoch: 0,
                kind: RetuneKind::Adapt,
                target: b"drp-scheme v1\n".to_vec(),
                monitor: Some(MonitorSnapshot {
                    problem: b"drp-instance v1\n".to_vec(),
                    population: vec![(9, vec![0x1ff]), (9, vec![0x0aa])],
                }),
                hot: Some(HotSnapshot {
                    windows: vec![vec![3, 0, 9], vec![1, 1, 1]],
                    ewma: vec![4 << 10, 1 << 10, 7 << 10],
                    promoted: vec![false, false, true],
                    boosted: vec![(1, 2)],
                    promotions: 2,
                    demotions: 1,
                }),
                predictor: Some(PredictSnapshot {
                    windows: vec![vec![5, 0, 2], vec![6, 1, 2]],
                    ewma: vec![5 << 10, 1 << 10, 2 << 10],
                    deferred: Some(b"drp-scheme v1\n".to_vec()),
                }),
            },
            WalRecord::Checkpoint(Checkpoint {
                next_epoch: 1,
                adaptations: 1,
                rebuilds: 0,
                realized: b"drp-scheme v1\n".to_vec(),
                target: b"drp-scheme v1\n".to_vec(),
                monitor: Some(MonitorSnapshot {
                    problem: b"drp-instance v1\n".to_vec(),
                    population: vec![],
                }),
                hot: None,
                predictor: Some(PredictSnapshot {
                    windows: vec![vec![5, 0, 2]],
                    ewma: vec![5 << 10, 0, 2 << 10],
                    deferred: None,
                }),
                reports: vec![sample_report(0)],
            }),
        ]
    }

    fn stream(records: &[WalRecord]) -> Vec<u8> {
        records.iter().flat_map(WalRecord::frame).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_round_trips() {
        let records = sample_records();
        let decoded = decode_stream(&stream(&records));
        assert_eq!(decoded.damage, None);
        assert_eq!(decoded.records, records);
        assert_eq!(decoded.valid_bytes, stream(&records).len());
    }

    #[test]
    fn torn_tail_is_reported_and_prefix_kept() {
        let records = sample_records();
        let bytes = stream(&records);
        // Cut mid-way through the last record's payload.
        let torn = &bytes[..bytes.len() - 5];
        let decoded = decode_stream(torn);
        assert_eq!(decoded.records.len(), records.len() - 1);
        match decoded.damage {
            Some(ServeError::WalTruncated {
                record,
                valid_bytes,
                dropped_bytes,
            }) => {
                assert_eq!(record, records.len() as u64 - 1);
                assert_eq!(valid_bytes as usize, decoded.valid_bytes);
                assert!(dropped_bytes > 0);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_record_is_reported_and_prefix_kept() {
        let records = sample_records();
        let mut bytes = stream(&records);
        // Flip a payload byte inside the third record.
        let offset: usize = records[..2].iter().map(|r| r.frame().len()).sum();
        bytes[offset + 8] ^= 0xff;
        let decoded = decode_stream(&bytes);
        assert_eq!(decoded.records.len(), 2);
        assert!(matches!(
            decoded.damage,
            Some(ServeError::WalCorrupt { record: 2, .. })
        ));
    }

    #[test]
    fn retired_tags_are_corrupt_and_prefix_kept() {
        let records = sample_records();
        for tag in 2u8..=7 {
            // A v3 `EpochStart { epoch: 0 }`-shaped payload under each
            // retired tag, framed with a valid CRC.
            let mut payload = vec![tag];
            payload.extend_from_slice(&0u64.to_le_bytes());
            let mut bytes = stream(&records[..2]);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&stream(&records[2..]));
            let decoded = decode_stream(&bytes);
            assert_eq!(decoded.records, records[..2]);
            assert_eq!(decoded.valid_bytes, stream(&records[..2]).len());
            match decoded.damage {
                Some(ServeError::WalCorrupt { record: 2, reason }) => {
                    assert_eq!(reason, format!("unknown record tag {tag}"));
                }
                other => panic!("tag {tag}: expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn tracing_store_reconstructs_crash_states() {
        let mut store = TracingStore::default();
        store.append(b"aaaa").unwrap();
        store.append(b"bbbb").unwrap();
        store.reset(b"cc").unwrap();
        store.append(b"dd").unwrap();
        assert_eq!(store.bytes(), b"ccdd");
        assert_eq!(store.contents_at(0, 2), b"aa");
        assert_eq!(store.contents_at(1, 0), b"aaaa");
        assert_eq!(store.contents_at(2, 1), b"aaaabbbb"); // torn reset keeps old
        assert_eq!(store.contents_at(2, 2), b"cc"); // complete reset replaces
        assert_eq!(store.contents_at(3, 1), b"ccd");
        assert_eq!(store.contents_at(4, 0), b"ccdd");
    }

    #[test]
    fn wal_tuning_rejects_zero_interval() {
        assert!(WalTuning {
            checkpoint_every: 0
        }
        .validate()
        .is_err());
        assert!(WalTuning::default().validate().is_ok());
    }

    #[test]
    fn file_store_round_trips_and_appends() {
        let dir = std::env::temp_dir().join(format!("drp_wal_{}", std::process::id()));
        let mut store = FileWalStore::open(&dir).unwrap();
        assert_eq!(store.load().unwrap(), Vec::<u8>::new());
        store.append(b"one").unwrap();
        store.append(b"two").unwrap();
        assert_eq!(store.load().unwrap(), b"onetwo");
        store.reset(b"three").unwrap();
        assert_eq!(store.load().unwrap(), b"three");
        let _ = std::fs::remove_dir_all(dir);
    }
}
