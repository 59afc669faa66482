//! Deterministic run instrumentation for the Eyeorg reproduction.
//!
//! Every layer of the pipeline — the network simulator, the HTTP
//! engines, the browser, the capture stack, and the campaign machinery —
//! bumps a small set of *registered* [`Counter`]s, [`Histogram`]s, and
//! [`LabeledCounter`]s declared in [`metrics`]. A run's totals are
//! collected into a serialisable [`RunReport`] (written to
//! `results/RUN_report.json` by the bench binaries), giving an auditable
//! trace of what actually executed: segments simulated, connections
//! reused, frames captured, participants gated, responses retained.
//!
//! Two properties make the layer safe to leave in hot paths:
//!
//! * **Determinism.** Counters are only bumped at points whose
//!   invocation count is a pure function of the workload and its seeds —
//!   never inside thread-count-dependent machinery (work stealing,
//!   memoisation races). Increments are commutative, so the totals are
//!   byte-identical at any `EYEORG_THREADS` setting; the campaign
//!   goldens (`eyeorg-core`'s `campaign_golden` test and
//!   `eyeorg-bench`'s `run_report_golden` test) pin
//!   [`RunReport::counter_fingerprint`] across thread counts.
//!   Wall-clock phase timings are the one nondeterministic section and
//!   live under a separate key ([`RunReport::timings_secs`]) that the
//!   fingerprint excludes.
//! * **Near-zero disabled cost.** Instrumentation is off by default;
//!   every record path first checks one relaxed atomic load and does
//!   nothing else. Bench binaries opt in with [`enable`]; the
//!   campaign goldens run with it on.
//!
//! The registry is static: all metrics are declared in this crate, so a
//! snapshot never misses a counter and reports always carry the full
//! key set (zeros included), keeping the fingerprint's shape stable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub mod metrics;

/// Global instrumentation switch. Off by default so library users and
/// the test suite pay only a relaxed load per potential record.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn instrumentation on (bench binaries call this at startup).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn instrumentation off again (used by tests).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether instrumentation is currently on. Callers computing a value
/// *only* to record it should guard the computation with this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A named monotonic counter.
///
/// Increments use relaxed atomics: addition commutes, so concurrent
/// workers produce the same total in any interleaving — the property the
/// cross-thread-count fingerprint check rests on.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new counter (used by the static registry in [`metrics`]).
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, value: AtomicU64::new(0) }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`. A no-op (one relaxed load) while instrumentation is off.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets per histogram: bucket `k` holds values whose
/// bit length is `k` (0, 1, 2–3, 4–7, …); the last bucket absorbs
/// everything ≥ 2³⁰.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The bucket index a value lands in: its bit length, clamped.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()).min(HISTOGRAM_BUCKETS as u32 - 1) as usize
}

/// A named histogram over `u64` samples with log₂ buckets.
///
/// Same concurrency story as [`Counter`]: every record is a handful of
/// relaxed adds, so totals and bucket counts merge order-independently.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A new histogram (used by the static registry in [`metrics`]).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample. A no-op while instrumentation is off.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        // lint:allow(D7): bucket_of clamps its result to HISTOGRAM_BUCKETS - 1
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(k, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((k, n))
                })
                .collect(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    fn restore(&self, snap: &HistogramSnapshot) {
        for &(k, n) in &snap.buckets {
            // Out-of-range indices (a snapshot from a build with more
            // buckets) are dropped rather than panicking.
            if k < HISTOGRAM_BUCKETS {
                self.buckets[k].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }
}

/// A counter keyed by a dynamic label (per-filter drop counts, retained
/// responses per site). Backed by a mutex-guarded `BTreeMap`, so it
/// belongs on *cold* paths only; additions per label commute, and the
/// map's ordering makes serialised output deterministic.
#[derive(Debug)]
pub struct LabeledCounter {
    name: &'static str,
    cells: Mutex<BTreeMap<String, u64>>,
}

impl LabeledCounter {
    /// A new labeled counter (used by the static registry in [`metrics`]).
    pub const fn new(name: &'static str) -> LabeledCounter {
        LabeledCounter { name, cells: Mutex::new(BTreeMap::new()) }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` under `label`. Recording a zero still materialises the
    /// label — that is how "site retained 0 responses" stays visible in
    /// the report. A no-op while instrumentation is off.
    ///
    /// Lock accesses here and below tolerate poisoning: a panicking
    /// recorder leaves the map in a valid state (every mutation is a
    /// single insert-or-add), and instrumentation must never turn one
    /// failure into a cascade.
    pub fn add(&self, label: &str, n: u64) {
        if !enabled() {
            return;
        }
        let mut cells = self.cells.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Saturating: a resumed run adds onto totals restored from an
        // untrusted checkpoint, which may sit next to `u64::MAX`.
        let cell = cells.entry(label.to_owned()).or_insert(0);
        *cell = cell.saturating_add(n);
    }

    /// Current value under `label` (0 when never recorded).
    pub fn get(&self, label: &str) -> u64 {
        let cells = self.cells.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        cells.get(label).copied().unwrap_or(0)
    }

    fn snapshot(&self) -> BTreeMap<String, u64> {
        self.cells.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    fn reset(&self) {
        self.cells.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }
}

/// Accumulated wall-clock seconds per phase name.
static TIMINGS: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());

/// Run `f`, accumulating its wall time under `phase` when
/// instrumentation is on.
pub fn time_phase<R>(phase: &str, f: impl FnOnce() -> R) -> R {
    let _guard = phase_timer(phase);
    f()
}

/// A scoped phase timer: accumulates the wall time between construction
/// and drop under its phase name. Obtain one with [`phase_timer`].
#[derive(Debug)]
pub struct PhaseGuard {
    phase: String,
    started: Option<Instant>,
}

/// Start timing `phase`; the returned guard records on drop. When
/// instrumentation is off the guard is inert (no clock read).
pub fn phase_timer(phase: &str) -> PhaseGuard {
    PhaseGuard {
        phase: phase.to_owned(),
        started: enabled().then(Instant::now),
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            let secs = t0.elapsed().as_secs_f64();
            let mut timings = TIMINGS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            *timings.entry(self.phase.clone()).or_insert(0.0) += secs;
        }
    }
}

/// One histogram's serialised form: only non-empty buckets, as
/// `(bucket_index, count)` pairs in index order. Checkpoint counters
/// lines serialize it as-is, so its field names are part of checkpoint
/// format v1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(log₂-bucket index, count)` for every non-empty bucket.
    pub buckets: Vec<(usize, u64)>,
}

/// Run context recorded alongside the totals. Excluded from
/// [`RunReport::counter_fingerprint`] — it legitimately varies across
/// the thread-count sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RunMeta {
    /// What produced the report (binary or stage name).
    pub label: String,
    /// Resolved worker-thread knob for the run.
    pub threads: usize,
    /// The machine's available parallelism.
    pub available_parallelism: usize,
}

/// A full snapshot of the instrumentation registry.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Run context (not fingerprinted).
    pub meta: RunMeta,
    /// Every registered counter, including zeros.
    pub counters: BTreeMap<String, u64>,
    /// Every registered labeled counter (label → total).
    pub labeled: BTreeMap<String, BTreeMap<String, u64>>,
    /// Every registered histogram.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Accumulated wall seconds per phase (not fingerprinted).
    pub timings_secs: BTreeMap<String, f64>,
}

impl RunReport {
    /// Canonical JSON of the deterministic sections (counters, labeled
    /// counters, histograms) — byte-identical across thread counts for a
    /// fixed workload and seed. `meta` and `timings_secs` are excluded.
    pub fn counter_fingerprint(&self) -> String {
        let det = serde::Value::Object(vec![
            ("counters".to_owned(), self.counters.to_value()),
            ("labeled".to_owned(), self.labeled.to_value()),
            ("histograms".to_owned(), self.histograms.to_value()),
        ]);
        // lint:allow(D4): serialising string-keyed maps of integers cannot fail
        serde_json::to_string(&det).expect("integer maps serialise")
    }

    /// Pretty JSON of the whole report (the `RUN_report.json` payload).
    pub fn to_json_pretty(&self) -> String {
        // lint:allow(D4): RunReport is plain maps and integers; its serialisation cannot fail
        serde_json::to_string_pretty(self).expect("report serialises")
    }
}

/// Snapshot every registered metric into a [`RunReport`].
pub fn snapshot(label: &str, threads: usize) -> RunReport {
    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    RunReport {
        meta: RunMeta { label: label.to_owned(), threads, available_parallelism: cpus },
        counters: metrics::counters()
            .iter()
            .map(|c| (c.name().to_owned(), c.get()))
            .collect(),
        labeled: metrics::labeled()
            .iter()
            .map(|l| (l.name().to_owned(), l.snapshot()))
            .collect(),
        histograms: metrics::histograms()
            .iter()
            .map(|h| (h.name().to_owned(), h.snapshot()))
            .collect(),
        timings_secs: TIMINGS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone(),
    }
}

/// Re-apply previously captured totals onto the live registry — the
/// checkpoint layer's resume path: [`reset`], then `restore` the
/// totals recorded at the checkpoint barrier, then continue the run,
/// and the final [`snapshot`] equals the uninterrupted run's.
///
/// Additive (totals are added onto whatever the registry currently
/// holds) and gated on [`enabled`] like every record path. Names
/// absent from the static registry are ignored — totals from a build
/// with extra metrics must degrade, never panic. A zero labeled total
/// still materialises its label, exactly as [`LabeledCounter::add`]
/// does, so restored reports keep fully-filtered sites visible.
pub fn restore(
    counters: &BTreeMap<String, u64>,
    labeled: &BTreeMap<String, BTreeMap<String, u64>>,
    histograms: &BTreeMap<String, HistogramSnapshot>,
) {
    if !enabled() {
        return;
    }
    for c in metrics::counters() {
        if let Some(&v) = counters.get(c.name()) {
            c.add(v);
        }
    }
    for l in metrics::labeled() {
        if let Some(cells) = labeled.get(l.name()) {
            for (label, &v) in cells {
                l.add(label, v);
            }
        }
    }
    for h in metrics::histograms() {
        if let Some(snap) = histograms.get(h.name()) {
            h.restore(snap);
        }
    }
}

/// Zero every registered metric and clear the phase timings (benchmarks
/// isolating per-round totals call this between rounds).
pub fn reset() {
    for c in metrics::counters() {
        c.reset();
    }
    for l in metrics::labeled() {
        l.reset();
    }
    for h in metrics::histograms() {
        h.reset();
    }
    TIMINGS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so tests that enable/reset it
    /// must not interleave; each takes this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        disable();
        reset();
        metrics::NET_EVENTS_PROCESSED.add(5);
        metrics::BROWSER_LOAD_CPU_MS.record(12);
        metrics::CORE_FILTER_DROPS.add("soft", 3);
        assert_eq!(metrics::NET_EVENTS_PROCESSED.get(), 0);
        assert_eq!(metrics::BROWSER_LOAD_CPU_MS.count(), 0);
        assert_eq!(metrics::CORE_FILTER_DROPS.get("soft"), 0);
    }

    #[test]
    fn enabled_counts_and_resets() {
        let _g = serial();
        enable();
        reset();
        metrics::NET_EVENTS_PROCESSED.add(2);
        metrics::NET_EVENTS_PROCESSED.incr();
        metrics::CORE_FILTER_DROPS.add("control", 4);
        metrics::CORE_FILTER_DROPS.add("control", 1);
        metrics::CORE_RETAINED_PER_SITE.add("site-0", 0);
        assert_eq!(metrics::NET_EVENTS_PROCESSED.get(), 3);
        assert_eq!(metrics::CORE_FILTER_DROPS.get("control"), 5);
        let report = snapshot("test", 1);
        assert_eq!(report.counters["net.events_processed"], 3);
        assert_eq!(report.labeled["core.filter_drops"]["control"], 5);
        // A zero add still materialises the label in the report.
        assert_eq!(report.labeled["core.retained_per_site"]["site-0"], 0);
        reset();
        disable();
        assert_eq!(metrics::NET_EVENTS_PROCESSED.get(), 0);
        assert_eq!(metrics::CORE_FILTER_DROPS.get("control"), 0);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let _g = serial();
        enable();
        reset();
        for v in [0u64, 1, 3, 3, 1000] {
            metrics::BROWSER_LOAD_CPU_MS.record(v);
        }
        let report = snapshot("test", 1);
        let h = &report.histograms["browser.load_cpu_ms"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1007);
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
        reset();
        disable();
    }

    #[test]
    fn fingerprint_is_order_independent_and_excludes_timings() {
        let _g = serial();
        enable();
        reset();
        // Concurrent increments from racing threads must land on the
        // same fingerprint as a sequential run.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..250 {
                        metrics::NET_SEGMENTS_SENT.incr();
                        metrics::CORE_FILTER_DROPS.add("soft", 1);
                        metrics::VIDEO_FRAMES_PER_CAPTURE.record(i % 17);
                    }
                });
            }
        });
        let concurrent = snapshot("test", 4).counter_fingerprint();
        reset();
        for _ in 0..4 {
            for i in 0..250 {
                metrics::NET_SEGMENTS_SENT.incr();
                metrics::CORE_FILTER_DROPS.add("soft", 1);
                metrics::VIDEO_FRAMES_PER_CAPTURE.record(i % 17);
            }
        }
        time_phase("only.in.timings", || std::thread::sleep(std::time::Duration::from_millis(1)));
        let sequential = snapshot("test", 1);
        assert_eq!(sequential.counter_fingerprint(), concurrent);
        assert!(sequential.timings_secs.contains_key("only.in.timings"));
        assert!(!sequential.counter_fingerprint().contains("only.in.timings"));
        // Meta differences (threads) never reach the fingerprint either.
        assert!(sequential.to_json_pretty().contains("only.in.timings"));
        reset();
        disable();
    }

    #[test]
    fn restore_round_trips_snapshot_fingerprint() {
        let _g = serial();
        enable();
        reset();
        metrics::NET_EVENTS_PROCESSED.add(7);
        metrics::CORE_FILTER_DROPS.add("soft", 3);
        metrics::CORE_RETAINED_PER_SITE.add("site-0", 0);
        metrics::BROWSER_LOAD_CPU_MS.record(1000);
        let before = snapshot("test", 1);
        // reset → restore reproduces the exact fingerprint, including
        // the zero-valued label and histogram buckets.
        reset();
        restore(&before.counters, &before.labeled, &before.histograms);
        let after = snapshot("test", 1);
        assert_eq!(after.counter_fingerprint(), before.counter_fingerprint());
        // Restore is additive: applying on top of live totals sums.
        metrics::NET_EVENTS_PROCESSED.add(1);
        restore(&before.counters, &before.labeled, &before.histograms);
        assert_eq!(metrics::NET_EVENTS_PROCESSED.get(), 15);
        assert_eq!(metrics::CORE_FILTER_DROPS.get("soft"), 6);
        // Unknown names and out-of-range buckets are ignored, never a
        // panic.
        let mut counters = BTreeMap::new();
        counters.insert("no.such.counter".to_owned(), 5u64);
        let mut labeled = BTreeMap::new();
        labeled.insert("no.such.labeled".to_owned(), BTreeMap::new());
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "browser.load_cpu_ms".to_owned(),
            HistogramSnapshot { count: 1, sum: 2, buckets: vec![(HISTOGRAM_BUCKETS + 4, 1)] },
        );
        restore(&counters, &labeled, &histograms);
        reset();
        disable();
        // Disabled restore is a no-op like every record path.
        restore(&before.counters, &before.labeled, &before.histograms);
        assert_eq!(metrics::NET_EVENTS_PROCESSED.get(), 0);
    }

    #[test]
    fn snapshot_reports_every_registered_metric_even_at_zero() {
        let _g = serial();
        disable();
        reset();
        let report = snapshot("test", 1);
        assert_eq!(report.counters.len(), metrics::counters().len());
        assert!(report.counters.values().all(|&v| v == 0));
        assert_eq!(report.histograms.len(), metrics::histograms().len());
        // Stable shape: two empty snapshots fingerprint identically.
        assert_eq!(report.counter_fingerprint(), snapshot("other", 8).counter_fingerprint());
    }
}
