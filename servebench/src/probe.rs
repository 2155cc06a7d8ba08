//! Benchmark-side instruments around the program's public surface: a
//! [`Recorder`] that splits one service run into set-up and serve loop, a
//! [`WalStore`] that times the durable log, and the process's peak memory.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drp_core::telemetry::{InMemoryRecorder, Recorder};
use drp_serve::{FileWalStore, WalStore};

/// FNV-1a over a word sequence: the seed-mixing scheme `drp-serve`
/// documents for its internal streams (`mix([seed, 1])` seeds the bootstrap
/// GRA, `mix([seed, 3, e])` epoch `e`'s trace, `mix([seed, 4, e])` boundary
/// `e`'s decision, `mix([seed, 2, e])` epoch `e`'s drift).
pub fn mix(words: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[derive(Debug, Default)]
struct Epochs {
    /// When the first `serve.epoch` span opened: the service is ready.
    first_start: Option<Instant>,
    /// Sum of `serve.epoch` span durations.
    total: Duration,
    /// Every call the probe received, kept or not.
    calls: u64,
}

/// Keeps only the `serve.epoch` closes of a run (forwarding everything to
/// an optional [`InMemoryRecorder`] for the traced run). The program emits
/// a few spans and counters per epoch, not per request, so the probe
/// receives `calls()` ≈ 22 per epoch against epochs of 10⁵ requests.
#[derive(Debug)]
pub struct EpochProbe {
    epochs: Mutex<Epochs>,
    inner: Option<Arc<InMemoryRecorder>>,
}

impl EpochProbe {
    pub fn new(inner: Option<Arc<InMemoryRecorder>>) -> Self {
        EpochProbe {
            epochs: Mutex::new(Epochs::default()),
            inner,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Epochs> {
        self.epochs.lock().expect("probe lock poisoned by a panic")
    }

    /// When epoch 0 started, if any epoch closed.
    pub fn ready_at(&self) -> Option<Instant> {
        self.lock().first_start
    }

    /// Wall time spent inside epochs: the serve loop.
    pub fn loop_time(&self) -> Duration {
        self.lock().total
    }

    pub fn calls(&self) -> u64 {
        self.lock().calls
    }
}

impl Recorder for EpochProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, name: &'static str, nanos: u64) {
        let now = Instant::now();
        {
            let mut e = self.lock();
            e.calls += 1;
            if name == "serve.epoch" {
                let took = Duration::from_nanos(nanos);
                e.first_start.get_or_insert(now - took);
                e.total += took;
            }
        }
        if let Some(inner) = &self.inner {
            inner.record_span(name, nanos);
        }
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        self.lock().calls += 1;
        if let Some(inner) = &self.inner {
            inner.add_counter(name, delta);
        }
    }

    fn set_gauge(&self, name: &'static str, value: f64) {
        self.lock().calls += 1;
        if let Some(inner) = &self.inner {
            inner.set_gauge(name, value);
        }
    }
}

/// A [`FileWalStore`] whose appends and resets are timed.
#[derive(Debug)]
pub struct TimedWal {
    pub store: FileWalStore,
    pub append_us: Vec<f64>,
    pub append_bytes: u64,
    pub reset_time: Duration,
}

impl TimedWal {
    pub fn new(store: FileWalStore) -> Self {
        TimedWal {
            store,
            append_us: Vec::new(),
            append_bytes: 0,
            reset_time: Duration::ZERO,
        }
    }

    /// Time spent in the store.
    pub fn busy(&self) -> Duration {
        let append_us = self.append_us.iter().fold(0.0, |a, b| a + b);
        Duration::from_secs_f64(append_us / 1e6) + self.reset_time
    }
}

impl WalStore for TimedWal {
    fn load(&mut self) -> io::Result<Vec<u8>> {
        self.store.load()
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let result = self.store.append(bytes);
        self.append_us.push(started.elapsed().as_secs_f64() * 1e6);
        self.append_bytes += bytes.len() as u64;
        result
    }

    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let result = self.store.reset(bytes);
        self.reset_time += started.elapsed();
        result
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
