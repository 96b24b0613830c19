//! Metrics for the workload driver, the figure harnesses and the registry.
//!
//! The paper's evaluation is three kinds of number: per-second throughput
//! timelines with migration events overlaid (Figs. 6–9, [`Timeline`] +
//! [`EventMarks`]), abort ratios (Table 2, [`AbortCounters`]) and average
//! latency deltas (Table 3, [`LatencyStat`]). There is one recorder per
//! kind, and each is striped inside: a write lands on the calling thread's
//! cache-line-padded cell and reads merge the cells exactly (counts, sums
//! and buckets add; max is the max of maxima), so hundreds of client
//! threads can record on every transaction without sharing a line.
//! [`MetricsRegistry`] puts [`Counter`], [`Gauge`] and [`LatencyStat`]
//! behind named, labeled series with per-node / per-migration scopes, so
//! the bench pipeline can snapshot everything into one machine-readable
//! report; [`HistogramWindow`] reads a histogram's lifetime bucket counts
//! as per-window increments.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

/// Cells per recorder. Sized for "a worker pool, not a thread per client":
/// more cells than recording threads is harmless (idle cells), fewer just
/// means some sharing.
const STRIPES: usize = 16;

/// Cache-line-sized cell so adjacent stripes never share a line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CacheLine<T>(T);

/// The write side of every recorder: one `T` per stripe.
///
/// With hundreds of logical clients multiplexed over a worker pool, every
/// commit hitting one mutex or one set of atomics serializes the
/// recorders. Each thread instead sticks to one cell and readers merge all
/// of them, so they see exactly the totals a single cell would hold; only
/// the write-side contention changes.
#[derive(Debug)]
struct Striped<T>(Box<[CacheLine<T>]>);

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped((0..STRIPES).map(|_| CacheLine::default()).collect())
    }
}

impl<T> Striped<T> {
    /// The calling thread's cell. Threads take slots round-robin on first
    /// use (process-wide counter, cached in a thread-local), so a fixed
    /// worker pool spreads evenly over the cells.
    fn local(&self) -> &T {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
        }
        &self.0[SLOT.with(|s| *s) % self.0.len()].0
    }

    /// Every cell, for merge-at-read.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|cell| &cell.0)
    }

    /// Sum of one relaxed atomic across the cells.
    fn sum(&self, field: impl Fn(&T) -> &AtomicU64) -> u64 {
        self.iter().map(|c| field(c).load(Ordering::Relaxed)).sum()
    }
}

/// A per-bucket throughput timeline anchored at a start instant.
///
/// Client threads call [`Timeline::record`] once per committed transaction;
/// the harness calls [`Timeline::buckets`] at the end to get
/// transactions-per-bucket, which it prints as the figure's series.
#[derive(Debug)]
pub struct Timeline {
    start: Instant,
    bucket: Duration,
    counts: Striped<Mutex<Vec<u64>>>,
}

impl Timeline {
    /// Creates a timeline whose clock starts now, aggregating into buckets
    /// of the given width.
    pub fn new(bucket: Duration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        Timeline {
            start: Instant::now(),
            bucket,
            counts: Striped::default(),
        }
    }

    /// Seconds-per-bucket convenience constructor.
    pub fn per_second() -> Self {
        Self::new(Duration::from_secs(1))
    }

    /// Records `n` events at the current instant.
    pub fn record_n(&self, n: u64) {
        let idx = (self.start.elapsed().as_nanos() / self.bucket.as_nanos()) as usize;
        let mut counts = self.counts.local().lock();
        if counts.len() <= idx {
            counts.resize(idx + 1, 0);
        }
        counts[idx] += n;
    }

    /// Records one event at the current instant.
    pub fn record(&self) {
        self.record_n(1);
    }

    /// Elapsed time since the timeline started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Snapshot of the per-bucket counts.
    pub fn buckets(&self) -> Vec<u64> {
        let mut merged: Vec<u64> = Vec::new();
        for cell in self.counts.iter() {
            let counts = cell.lock();
            if counts.len() > merged.len() {
                merged.resize(counts.len(), 0);
            }
            for (m, &c) in merged.iter_mut().zip(counts.iter()) {
                *m += c;
            }
        }
        merged
    }

    /// Events per second for each bucket (counts scaled by bucket width).
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let scale = 1.0 / self.bucket.as_secs_f64();
        self.buckets().iter().map(|&c| c as f64 * scale).collect()
    }
}

/// Marks points in time relative to a [`Timeline`], used to overlay
/// migration start/end and workload phase boundaries on the figures.
#[derive(Debug, Default)]
pub struct EventMarks {
    marks: Mutex<Vec<(String, Duration)>>,
}

impl EventMarks {
    /// Creates an empty set of marks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a named mark at offset `at` from the timeline start.
    pub fn mark_at(&self, label: impl Into<String>, at: Duration) {
        self.marks.lock().push((label.into(), at));
    }

    /// Records a named mark at the timeline's current elapsed time.
    pub fn mark(&self, label: impl Into<String>, timeline: &Timeline) {
        self.mark_at(label, timeline.elapsed());
    }

    /// All marks recorded so far, in insertion order.
    pub fn all(&self) -> Vec<(String, Duration)> {
        self.marks.lock().clone()
    }
}

/// A fixed-boundary exponential histogram over microsecond magnitudes.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` microseconds; bucket 0 additionally
/// absorbs sub-microsecond (including zero) samples, and the last bucket
/// absorbs everything `>= 2^31` µs. Lock-free: one atomic per bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 32],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket index a sample of `micros` microseconds lands in.
    /// Zero and sub-microsecond samples land in bucket 0; values at an
    /// exact power-of-two boundary open the higher bucket (`2^i` µs is the
    /// *inclusive* lower bound of bucket `i`).
    pub fn bucket_of(micros: u64) -> usize {
        let m = micros.max(1);
        ((63 - m.leading_zeros()) as usize).min(31)
    }

    /// Records one sample of `micros` microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot of the per-bucket counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Approximate percentile (`p` clamped to `0.0..=1.0`) as a duration
    /// at power-of-two-microsecond resolution, reported as the upper
    /// boundary of the bucket holding the target sample. Zero when empty.
    pub fn percentile(&self, p: f64) -> Duration {
        percentile_of(&self.bucket_counts(), p).unwrap_or(Duration::ZERO)
    }
}

/// The one percentile walk: the upper boundary of the bucket (boundaries
/// as in [`Histogram`]) holding the `p`-th sample of `counts`, `p` clamped
/// to `0.0..=1.0`. `None` when `counts` holds no samples.
fn percentile_of(counts: &[u64], p: f64) -> Option<Duration> {
    let total: u64 = counts.iter().sum();
    // Never target fewer than one sample: p = 0.0 means "the smallest
    // recorded sample", not "before any sample".
    let target = ((total as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= target {
            return Some(Duration::from_micros(1u64 << (i + 1)));
        }
    }
    None
}

/// Streaming latency statistics (count / mean / max, plus a fixed-boundary
/// [`Histogram`] for percentiles).
///
/// Lock-free on the hot path: everything is atomics.
#[derive(Debug, Default)]
pub struct LatencyStat {
    cells: Striped<LatencyCell>,
}

#[derive(Debug, Default)]
struct LatencyCell {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
    hist: Histogram,
}

impl LatencyStat {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        let cell = self.cells.local();
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        cell.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        cell.hist
            .record_micros(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.cells.sum(|c| &c.count)
    }

    /// Mean latency, or zero when no samples were recorded.
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.cells.sum(|c| &c.total_nanos) / n)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Duration {
        let maxima = self
            .cells
            .iter()
            .map(|c| c.max_nanos.load(Ordering::Relaxed));
        Duration::from_nanos(maxima.max().unwrap_or(0))
    }

    /// Per-bucket histogram counts (same boundaries as [`Histogram`]).
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut merged = vec![0u64; 32];
        for cell in self.cells.iter() {
            for (m, c) in merged.iter_mut().zip(cell.hist.bucket_counts()) {
                *m += c;
            }
        }
        merged
    }

    /// Approximate percentile (0.0..=1.0) from the exponential histogram;
    /// resolution is one power of two in microseconds, capped by the true
    /// maximum so single-sample percentiles never exceed the real sample.
    /// Zero when empty.
    pub fn percentile(&self, p: f64) -> Duration {
        percentile_of(&self.bucket_counts(), p).map_or(Duration::ZERO, |d| d.min(self.max()))
    }
}

/// Commit/abort accounting broken down the way the paper reports it.
#[derive(Debug, Default)]
pub struct AbortCounters {
    cells: Striped<AbortCell>,
}

#[derive(Debug, Default)]
struct AbortCell {
    commits: AtomicU64,
    ww_aborts: AtomicU64,
    migration_aborts: AtomicU64,
    other_aborts: AtomicU64,
}

impl AbortCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn bump(&self, class: impl Fn(&AbortCell) -> &AtomicU64) {
        class(self.cells.local()).fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one committed transaction.
    pub fn commit(&self) {
        self.bump(|c| &c.commits);
    }

    /// Counts one write-write-conflict abort.
    pub fn ww_abort(&self) {
        self.bump(|c| &c.ww_aborts);
    }

    /// Counts one migration-induced abort.
    pub fn migration_abort(&self) {
        self.bump(|c| &c.migration_aborts);
    }

    /// Counts one abort of any other kind.
    pub fn other_abort(&self) {
        self.bump(|c| &c.other_aborts);
    }

    /// Committed transactions so far.
    pub fn commits(&self) -> u64 {
        self.cells.sum(|c| &c.commits)
    }

    /// WW-conflict aborts so far.
    pub fn ww_aborts(&self) -> u64 {
        self.cells.sum(|c| &c.ww_aborts)
    }

    /// Migration-induced aborts so far.
    pub fn migration_aborts(&self) -> u64 {
        self.cells.sum(|c| &c.migration_aborts)
    }

    /// Other aborts so far.
    pub fn other_aborts(&self) -> u64 {
        self.cells.sum(|c| &c.other_aborts)
    }

    /// Fraction of attempts that aborted for migration reasons
    /// (Table 2's "Abort Ratio During Consolidation").
    pub fn migration_abort_ratio(&self) -> f64 {
        let aborts = self.migration_aborts() as f64;
        let attempts = aborts + self.commits() as f64;
        if attempts == 0.0 {
            0.0
        } else {
            aborts / attempts
        }
    }
}

/// A monotonically increasing counter handle.
///
/// Handles are shared `Arc`s resolved once from the registry; increments
/// are single relaxed atomics — cheap enough for every commit/abort/hop.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed, unregistered counter (hot-path structs can own one and
    /// surface it through a registry snapshot later).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if larger (high-water marks).
    pub fn raise(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Identity of one series: metric name plus sorted label pairs.
type SeriesKey = (String, Vec<(String, String)>);

/// One exported sample of a registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name, `layer.noun_verb` (e.g. `txn.2pc_hops`).
    pub name: String,
    /// Label pairs, sorted by key (e.g. `[("node", "2")]`).
    pub labels: Vec<(String, String)>,
    /// Series kind: `"counter"`, `"gauge"`, or `"latency"`.
    pub kind: &'static str,
    /// Scalar value: the count for counters/gauges, the sample count for
    /// latency series.
    pub value: u64,
    /// Latency summary `(mean, p50, p99, max)`, present for latency series.
    pub latency: Option<(Duration, Duration, Duration, Duration)>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RwLock<HashMap<SeriesKey, Arc<Counter>>>,
    gauges: RwLock<HashMap<SeriesKey, Arc<Gauge>>>,
    latencies: RwLock<HashMap<SeriesKey, Arc<LatencyStat>>>,
}

/// Named, labeled metric series with cheap scoping.
///
/// A registry value is a *scope*: a shared store plus the label set every
/// series resolved through it inherits. [`MetricsRegistry::scoped`] derives
/// child scopes (`node=3`, `migration=7`) that write into the same store,
/// so one snapshot sees the whole cluster. Resolution takes a short-lived
/// map lock; the returned handles are lock-free — resolve once per site,
/// not per increment.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    labels: Vec<(String, String)>,
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// A fresh, unlabeled registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A child scope with `key=value` appended to the label set, sharing
    /// this registry's store.
    pub fn scoped(&self, key: impl Into<String>, value: impl ToString) -> MetricsRegistry {
        let mut labels = self.labels.clone();
        labels.push((key.into(), value.to_string()));
        labels.sort();
        labels.dedup();
        MetricsRegistry {
            labels,
            inner: Arc::clone(&self.inner),
        }
    }

    /// This scope's label set (sorted).
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    fn key(&self, name: &str) -> SeriesKey {
        (name.to_string(), self.labels.clone())
    }

    /// Resolves (or creates) the counter `name` under this scope's labels.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let key = self.key(name);
        if let Some(c) = self.inner.counters.read().get(&key) {
            return Arc::clone(c);
        }
        Arc::clone(self.inner.counters.write().entry(key).or_default())
    }

    /// Resolves (or creates) the gauge `name` under this scope's labels.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let key = self.key(name);
        if let Some(g) = self.inner.gauges.read().get(&key) {
            return Arc::clone(g);
        }
        Arc::clone(self.inner.gauges.write().entry(key).or_default())
    }

    /// Resolves (or creates) the latency series `name` under this scope's
    /// labels.
    pub fn latency(&self, name: &str) -> Arc<LatencyStat> {
        let key = self.key(name);
        if let Some(l) = self.inner.latencies.read().get(&key) {
            return Arc::clone(l);
        }
        Arc::clone(
            self.inner
                .latencies
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(LatencyStat::new())),
        )
    }

    /// Snapshot of every series in the shared store (all scopes), sorted
    /// by `(name, labels)` for deterministic reports.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut out = Vec::new();
        for ((name, labels), c) in self.inner.counters.read().iter() {
            out.push(MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                kind: "counter",
                value: c.get(),
                latency: None,
            });
        }
        for ((name, labels), g) in self.inner.gauges.read().iter() {
            out.push(MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                kind: "gauge",
                value: g.get(),
                latency: None,
            });
        }
        for ((name, labels), l) in self.inner.latencies.read().iter() {
            out.push(MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                kind: "latency",
                value: l.count(),
                latency: Some((l.mean(), l.percentile(0.5), l.percentile(0.99), l.max())),
            });
        }
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }
}

/// Windowed percentile reader over histogram bucket counts
/// ([`Histogram::bucket_counts`] or [`LatencyStat::bucket_counts`]).
///
/// Remembers the previous bucket counts and answers percentiles over only
/// the samples recorded since the last advance — the foreground-p99 signal
/// the planner's latency throttle consumes. An empty window answers `None`
/// instead of a stale or fabricated value.
#[derive(Debug, Default)]
pub struct HistogramWindow {
    last: Vec<u64>,
}

impl HistogramWindow {
    /// A window anchored at zero samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-bucket increments of `counts` since the previous call; advances
    /// the window. A shrinking bucket (source reset) contributes its new
    /// count whole.
    pub fn advance(&mut self, counts: &[u64]) -> Vec<u64> {
        let deltas = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let prev = self.last.get(i).copied().unwrap_or(0);
                if n < prev {
                    n
                } else {
                    n - prev
                }
            })
            .collect();
        self.last = counts.to_vec();
        deltas
    }

    /// Windowed percentile (`p` clamped to `0.0..=1.0`) at the histogram's
    /// power-of-two resolution, reported as the holding bucket's upper
    /// bound; advances the window. `None` when no samples landed since the
    /// previous call.
    pub fn percentile_since(&mut self, counts: &[u64], p: f64) -> Option<Duration> {
        percentile_of(&self.advance(counts), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_buckets_accumulate() {
        let t = Timeline::new(Duration::from_secs(3600)); // everything lands in bucket 0
        t.record();
        t.record_n(4);
        assert_eq!(t.buckets(), vec![5]);
    }

    #[test]
    fn timeline_rates_scale_by_bucket_width() {
        let t = Timeline::new(Duration::from_millis(500));
        t.record_n(10);
        let rates = t.rates_per_sec();
        assert_eq!(rates[0], 20.0);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn timeline_rejects_zero_bucket() {
        let _ = Timeline::new(Duration::ZERO);
    }

    #[test]
    fn latency_stat_mean_and_max() {
        let s = LatencyStat::new();
        s.record(Duration::from_micros(10));
        s.record(Duration::from_micros(30));
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), Duration::from_micros(20));
        assert_eq!(s.max(), Duration::from_micros(30));
    }

    #[test]
    fn latency_stat_empty_is_zero() {
        let s = LatencyStat::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
        assert_eq!(s.percentile(0.99), Duration::ZERO);
    }

    #[test]
    fn latency_percentile_is_monotone() {
        let s = LatencyStat::new();
        for i in 1..=1000u64 {
            s.record(Duration::from_micros(i));
        }
        assert!(s.percentile(0.5) <= s.percentile(0.99));
        // p50 of 1..1000 µs should land near 512 µs at power-of-two resolution.
        assert!(s.percentile(0.5) >= Duration::from_micros(256));
        assert!(s.percentile(0.5) <= Duration::from_micros(1024));
    }

    #[test]
    fn abort_ratio_matches_table2_definition() {
        let c = AbortCounters::new();
        for _ in 0..97 {
            c.migration_abort();
        }
        for _ in 0..3 {
            c.commit();
        }
        assert!((c.migration_abort_ratio() - 0.97).abs() < 1e-9);
    }

    #[test]
    fn abort_ratio_empty_is_zero() {
        assert_eq!(AbortCounters::new().migration_abort_ratio(), 0.0);
    }

    #[test]
    fn event_marks_preserve_order() {
        let marks = EventMarks::new();
        marks.mark_at("a", Duration::from_secs(1));
        marks.mark_at("b", Duration::from_secs(2));
        marks.mark("now", &Timeline::per_second());
        let all = marks.all();
        assert_eq!(all[0].0, "a");
        assert_eq!(all[1].0, "b");
        assert_eq!(all[2].0, "now");
        assert!(all[2].1 < Duration::from_secs(1));
    }

    #[test]
    fn histogram_bucket_boundaries_open_the_higher_bucket() {
        // 2^i µs is the inclusive lower bound of bucket i.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(1025), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 31);
    }

    #[test]
    fn histogram_zero_duration_samples_count() {
        let h = Histogram::new();
        h.record_micros(0);
        h.record_micros(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts()[0], 2);
        // Percentile of all-zero samples reports the smallest bucket bound,
        // not garbage from an empty scan.
        assert_eq!(h.percentile(0.5), Duration::from_micros(2));
    }

    #[test]
    fn latency_percentile_zero_returns_smallest_sample_bucket() {
        // Regression: p = 0.0 used to satisfy `seen >= 0` at bucket 0 and
        // always answer 2 µs regardless of the data.
        let s = LatencyStat::new();
        s.record(Duration::from_micros(5000));
        s.record(Duration::from_micros(6000));
        assert!(s.percentile(0.0) >= Duration::from_micros(4096));
    }

    #[test]
    fn latency_single_sample_percentiles_do_not_overshoot_max() {
        // Regression: a lone 10 µs sample used to report p99 = 16 µs (the
        // bucket's upper bound); percentiles are now capped at the true max.
        let s = LatencyStat::new();
        s.record(Duration::from_micros(10));
        assert_eq!(s.percentile(0.5), Duration::from_micros(10));
        assert_eq!(s.percentile(0.99), Duration::from_micros(10));
        assert_eq!(s.percentile(1.0), Duration::from_micros(10));
    }

    #[test]
    fn latency_percentile_out_of_range_p_is_clamped() {
        let s = LatencyStat::new();
        s.record(Duration::from_micros(100));
        assert_eq!(s.percentile(-1.0), s.percentile(0.0));
        assert_eq!(s.percentile(2.0), s.percentile(1.0));
    }

    #[test]
    fn latency_zero_duration_records() {
        let s = LatencyStat::new();
        s.record(Duration::ZERO);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
        // Percentile is capped at max, so all-zero data answers zero.
        assert_eq!(s.percentile(0.99), Duration::ZERO);
    }

    #[test]
    fn timeline_event_exactly_on_bucket_boundary() {
        // An event at elapsed == k * bucket lands in bucket k (half-open
        // buckets [k*w, (k+1)*w)); exercised via the index arithmetic.
        let t = Timeline::new(Duration::from_nanos(1)); // every nanosecond is a new bucket
        t.record();
        let buckets = t.buckets();
        assert_eq!(buckets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn timeline_empty_has_no_buckets() {
        let t = Timeline::per_second();
        assert!(t.buckets().is_empty());
        assert!(t.rates_per_sec().is_empty());
    }

    #[test]
    fn registry_scoping_isolates_series() {
        let root = MetricsRegistry::new();
        let n1 = root.scoped("node", 1);
        let n2 = root.scoped("node", 2);
        n1.counter("commits").add(3);
        n2.counter("commits").add(5);
        root.counter("commits").inc();
        let snap = root.snapshot();
        let values: Vec<(Vec<(String, String)>, u64)> = snap
            .iter()
            .filter(|s| s.name == "commits")
            .map(|s| (s.labels.clone(), s.value))
            .collect();
        assert_eq!(values.len(), 3);
        assert!(values.contains(&(vec![], 1)));
        assert!(values.contains(&(vec![("node".into(), "1".into())], 3)));
        assert!(values.contains(&(vec![("node".into(), "2".into())], 5)));
    }

    #[test]
    fn registry_same_series_resolves_to_same_handle() {
        let reg = MetricsRegistry::new().scoped("migration", 7);
        let a = reg.counter("hops");
        let b = reg.counter("hops");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("hops").get(), 2);
    }

    #[test]
    fn registry_gauge_raise_keeps_high_water_mark() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("queue_depth");
        g.set(10);
        g.raise(4);
        assert_eq!(g.get(), 10);
        g.raise(25);
        assert_eq!(g.get(), 25);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.scoped("node", 2).counter("z").inc();
        reg.scoped("node", 1).counter("z").inc();
        reg.counter("a").inc();
        reg.latency("lat").record(Duration::from_micros(50));
        let snap = reg.snapshot();
        let keys: Vec<(String, Vec<(String, String)>)> = snap
            .iter()
            .map(|s| (s.name.clone(), s.labels.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let lat = snap.iter().find(|s| s.name == "lat").unwrap();
        assert_eq!(lat.kind, "latency");
        assert_eq!(lat.value, 1);
        assert!(lat.latency.is_some());
    }

    #[test]
    fn histogram_window_empty_window_is_none() {
        let h = Histogram::new();
        let mut w = HistogramWindow::new();
        assert_eq!(w.percentile_since(&h.bucket_counts(), 0.99), None);
        h.record_micros(100);
        assert!(w.percentile_since(&h.bucket_counts(), 0.99).is_some());
        // No new samples: None again, not the previous window's answer.
        assert_eq!(w.percentile_since(&h.bucket_counts(), 0.99), None);
    }

    #[test]
    fn histogram_window_percentile_sees_only_the_window() {
        let h = Histogram::new();
        let mut w = HistogramWindow::new();
        // First window: a thousand fast samples.
        for _ in 0..1000 {
            h.record_micros(10);
        }
        let p99 = w.percentile_since(&h.bucket_counts(), 0.99).unwrap();
        assert!(p99 <= Duration::from_micros(16), "fast window, got {p99:?}");
        // Second window: only slow samples. A lifetime percentile would
        // still answer ~16 µs; the window must see the spike.
        for _ in 0..10 {
            h.record_micros(50_000);
        }
        let p99 = w.percentile_since(&h.bucket_counts(), 0.99).unwrap();
        assert!(
            p99 >= Duration::from_micros(32_768),
            "slow window, got {p99:?}"
        );
    }

    #[test]
    fn histogram_window_shrinking_bucket_does_not_wrap() {
        let h1 = Histogram::new();
        for _ in 0..50 {
            h1.record_micros(8);
        }
        let mut w = HistogramWindow::new();
        w.advance(&h1.bucket_counts());
        // Same window object pointed at a fresh histogram (reset source).
        let h2 = Histogram::new();
        h2.record_micros(8);
        let deltas = w.advance(&h2.bucket_counts());
        assert_eq!(deltas[Histogram::bucket_of(8)], 1);
        assert!(deltas.iter().all(|&d| d <= 1));
    }

    #[test]
    fn stripe_cells_are_cache_line_aligned() {
        assert!(std::mem::align_of::<CacheLine<AtomicU64>>() >= 64);
        assert!(std::mem::size_of::<CacheLine<AtomicU64>>() >= 64);
    }

    #[test]
    fn a_thread_sticks_to_one_cell_in_every_recorder() {
        let (a, b) = (
            Striped::<AtomicU64>::default(),
            Striped::<AtomicU64>::default(),
        );
        assert!(std::ptr::eq(a.local(), a.local()), "same thread, same cell");
        let slot = |s: &Striped<AtomicU64>| s.iter().position(|c| std::ptr::eq(c, s.local()));
        assert_eq!(slot(&a), slot(&b));
        assert_eq!(a.iter().count(), STRIPES);
    }

    /// More recording threads than cells, so cells are shared and every
    /// read has to merge.
    const THREADS: u64 = 24;
    const _: () = assert!(THREADS as usize > STRIPES);

    fn on_every_thread(f: impl Fn(u64) + Sync) {
        std::thread::scope(|s| {
            for i in 0..THREADS {
                let f = &f;
                s.spawn(move || f(i));
            }
        });
    }

    /// Thread `i`'s `k`-th latency sample, in nanoseconds: spreads over
    /// many buckets, sub-microsecond remainders included.
    fn sample_nanos(i: u64, k: u64) -> u64 {
        (i + 1) * 7_919 * (k + 1) + k
    }

    #[test]
    fn timeline_merge_is_exact_across_threads() {
        // One bucket for everything, and buckets narrow enough that the
        // cells' vectors differ in length.
        for width in [Duration::from_secs(3600), Duration::from_micros(20)] {
            let t = Timeline::new(width);
            on_every_thread(|i| {
                for _ in 0..100 {
                    t.record();
                }
                t.record_n(i);
            });
            let model: u64 = (0..THREADS).map(|i| 100 + i).sum();
            assert_eq!(t.buckets().iter().sum::<u64>(), model);
            assert_eq!(t.rates_per_sec().len(), t.buckets().len());
            if width > Duration::from_secs(1) {
                assert_eq!(t.buckets(), vec![model]);
            }
        }
    }

    #[test]
    fn latency_merge_is_exact_across_threads() {
        const PER_THREAD: u64 = 50;
        let s = LatencyStat::new();
        on_every_thread(|i| {
            for k in 0..PER_THREAD {
                s.record(Duration::from_nanos(sample_nanos(i, k)));
            }
        });
        // The model: the same samples through one flat histogram.
        let flat = Histogram::new();
        let (mut sum, mut max) = (0u64, 0u64);
        for i in 0..THREADS {
            for k in 0..PER_THREAD {
                let nanos = sample_nanos(i, k);
                flat.record_micros(nanos / 1_000);
                sum += nanos;
                max = max.max(nanos);
            }
        }
        let n = THREADS * PER_THREAD;
        assert_eq!(s.count(), n);
        assert_eq!(s.bucket_counts(), flat.bucket_counts());
        assert_eq!(s.mean(), Duration::from_nanos(sum / n));
        assert_eq!(s.max(), Duration::from_nanos(max));
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert!(s.percentile(p) <= s.max(), "p{p}");
            assert_eq!(s.percentile(p), flat.percentile(p).min(s.max()), "p{p}");
        }
        assert!(s.percentile(0.5) <= s.percentile(0.99));
    }

    #[test]
    fn abort_counters_merge_is_exact_across_threads() {
        let c = AbortCounters::new();
        on_every_thread(|i| {
            for _ in 0..25 + i {
                c.commit();
            }
            for _ in 0..i % 3 {
                c.ww_abort();
            }
            for _ in 0..i % 5 {
                c.migration_abort();
            }
            c.other_abort();
        });
        let commits: u64 = (0..THREADS).map(|i| 25 + i).sum();
        let migration: u64 = (0..THREADS).map(|i| i % 5).sum();
        assert_eq!(c.commits(), commits);
        assert_eq!(c.ww_aborts(), (0..THREADS).map(|i| i % 3).sum::<u64>());
        assert_eq!(c.migration_aborts(), migration);
        assert_eq!(c.other_aborts(), THREADS);
        let table2 = migration as f64 / (migration + commits) as f64;
        assert!((c.migration_abort_ratio() - table2).abs() < 1e-12);
    }

    #[test]
    fn histogram_window_over_counts_merged_from_two_threads() {
        let s = LatencyStat::new();
        let mut w = HistogramWindow::new();
        let both_record = |micros: u64, each: u64| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        for _ in 0..each {
                            s.record(Duration::from_micros(micros));
                        }
                    });
                }
            });
        };
        both_record(10, 500);
        let p99 = w.percentile_since(&s.bucket_counts(), 0.99).unwrap();
        assert!(p99 <= Duration::from_micros(16), "fast window, got {p99:?}");
        // The lifetime p99 stays ~16 µs; the window sees only the spike,
        // and all of it, whichever cells the two threads landed on.
        both_record(50_000, 5);
        let deltas = w.advance(&s.bucket_counts());
        assert_eq!(deltas.iter().sum::<u64>(), 10);
        assert_eq!(deltas[Histogram::bucket_of(50_000)], 10);
        assert_eq!(w.percentile_since(&s.bucket_counts(), 0.99), None);
    }

    #[test]
    fn registry_scoped_labels_are_sorted_and_deduped() {
        let reg = MetricsRegistry::new()
            .scoped("node", 3)
            .scoped("migration", 1)
            .scoped("node", 3);
        assert_eq!(
            reg.labels(),
            &[
                ("migration".to_string(), "1".to_string()),
                ("node".to_string(), "3".to_string())
            ]
        );
    }
}
