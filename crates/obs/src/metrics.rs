//! The metrics registry: named counters, fixed-bucket histograms, and
//! read-only *views* over atomics that already exist elsewhere in the
//! stack (I/O stats, buffer-pool counters), so the legacy `DbStats`
//! plumbing becomes one registration instead of hand-threaded structs.
//!
//! All hot-path operations are lock-free: a [`Counter`] is an
//! `Arc<AtomicU64>`, a [`Histogram`] observation is two `fetch_add`s
//! plus one bucket `fetch_add`. The registry's own map is only locked
//! on registration and export.
//!
//! Exports come in two flavors: Prometheus text and [`Json`] documents.
//! [`MetricsRegistry::counters_json`] deliberately excludes histogram
//! `sum`/`count`-derived means and any wall-clock-touched series so
//! determinism tests can compare it byte-for-byte across runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::Json;
use crate::json_obj;
use crate::sync::Mutex;

/// Bucket bounds for nanosecond-scale latency histograms: 1µs → 1s in
/// half-decade steps (wall clocks feed these, so they are excluded from
/// every deterministic export — see [`MetricsRegistry::counters_json`]).
pub const NANOS_BOUNDS: [u64; 13] = [
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
];

/// A monotonically increasing counter handle. Cheap to clone; all
/// clones share one atomic cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        // ordering: Relaxed — monotonic counter, no ordering needed.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — monotonic counter, no ordering needed.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — counter read, no ordering needed.
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram. Bucket `i` counts observations
/// `<= bounds[i]`; one extra implicit `+Inf` bucket catches the rest.
/// Observation is lock-free (bucket scan + three `fetch_add`s).
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: sorted,
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        // ordering: Relaxed (all three) — the bucket, sum, and count
        // cells are independent counters; readers tolerate a torn
        // observation (count may lag sum by one mid-observe).
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // ordering: as above.
        self.sum.fetch_add(value, Ordering::Relaxed);
        // ordering: as above.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — counter read, no ordering needed.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        // ordering: Relaxed — counter read, no ordering needed.
        self.sum.load(Ordering::Relaxed)
    }

    /// `(upper_bound, cumulative_count)` per bucket, ending with the
    /// `+Inf` bucket reported as `None`.
    #[must_use]
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut acc = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            // ordering: Relaxed — counter read, no ordering needed.
            acc += bucket.load(Ordering::Relaxed);
            out.push((self.bounds.get(i).copied(), acc));
        }
        out
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the containing bucket — the `histogram_quantile` shape
    /// Prometheus uses. An empty histogram reports `0.0`; a quantile
    /// landing in the `+Inf` bucket is clamped to the largest finite
    /// bound (there is no upper edge to interpolate toward).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let cumulative = self.cumulative();
        let total = cumulative.last().map_or(0, |&(_, c)| c);
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)] // observation counts, not ids
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut prev_cum = 0u64;
        let mut prev_bound = 0u64;
        #[allow(clippy::cast_precision_loss)]
        for (bound, cum) in cumulative {
            let Some(b) = bound else {
                return prev_bound as f64;
            };
            if cum as f64 >= rank {
                let in_bucket = cum - prev_cum;
                if in_bucket > 0 {
                    let frac = ((rank - prev_cum as f64) / in_bucket as f64).clamp(0.0, 1.0);
                    return prev_bound as f64 + frac * (b - prev_bound) as f64;
                }
            }
            prev_cum = cum;
            prev_bound = b;
        }
        prev_bound as f64
    }
}

enum Metric {
    Counter(Counter),
    View(Box<dyn Fn() -> u64 + Send + Sync>),
    Histogram(Arc<Histogram>),
}

/// A named collection of counters, views and histograms.
///
/// Names are free-form but should stick to `[a-z0-9_]` so the
/// Prometheus rendering is valid. Registration is idempotent: asking
/// for an existing counter/histogram returns the existing handle.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`. If `name` is already
    /// registered as a different metric kind, a detached counter is
    /// returned (it counts, but the registered metric keeps the name).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.metrics.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Register `f` as a read-only view: the exporters call it to get
    /// the current value. Use this to surface atomics that already
    /// live elsewhere (I/O stats, pool counters) without double
    /// accounting. Re-registering a name replaces the old view.
    pub fn register_view<F: Fn() -> u64 + Send + Sync + 'static>(&self, name: &str, f: F) {
        self.metrics
            .lock()
            .insert(name.to_string(), Metric::View(Box::new(f)));
    }

    /// Get or create the histogram `name` with the given bucket upper
    /// bounds (sorted and deduplicated internally). Like
    /// [`MetricsRegistry::counter`], a kind mismatch yields a detached
    /// instance.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut map = self.metrics.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new(bounds)),
        }
    }

    /// Deterministic JSON of every counter and view (histograms are
    /// excluded so wall-clock-fed series can never sneak into byte
    /// comparisons): `{"name":value,...}` in sorted name order.
    #[must_use]
    pub fn counters_json(&self) -> String {
        self.counter_values()
            .into_iter()
            .collect::<Json>()
            .to_string()
    }

    /// Snapshot of every counter and view as `(name, value)` pairs in
    /// sorted name order — the compact metrics image the flight
    /// recorder persists (histograms are summarized elsewhere).
    #[must_use]
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let mut values = Vec::new();
        self.for_each_counter(|name, value| values.push((name.to_string(), value)));
        values
    }

    /// Call `f` with every counter and view as `(name, value)` in sorted
    /// name order, each name borrowed from the registry: what
    /// [`MetricsRegistry::counter_values`] collects, with no copy made.
    pub fn for_each_counter(&self, mut f: impl FnMut(&str, u64)) {
        let map = self.metrics.lock();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => f(name, c.get()),
                Metric::View(view) => f(name, view()),
                Metric::Histogram(_) => {}
            }
        }
    }

    /// Non-deterministic JSON of every histogram, summarized as
    /// interpolated quantiles plus mean/count:
    /// `{"name":{"p50":..,"p99":..,"p999":..,"mean":..,"count":N},...}`.
    /// This is the timing-flavored complement of
    /// [`MetricsRegistry::counters_json`]: histograms here are fed by
    /// wall-clock nanos, so this export must never enter a byte-for-byte
    /// determinism comparison.
    #[must_use]
    pub fn histograms_json(&self) -> String {
        let map = self.metrics.lock();
        map.iter()
            .filter_map(|(name, metric)| {
                let Metric::Histogram(h) = metric else {
                    return None;
                };
                let count = h.count();
                #[allow(clippy::cast_precision_loss)] // summary stats, not ids
                let mean = if count == 0 {
                    0.0
                } else {
                    h.sum() as f64 / count as f64
                };
                let summary = json_obj! {
                    "p50": h.quantile(0.50),
                    "p99": h.quantile(0.99),
                    "p999": h.quantile(0.999),
                    "mean": mean,
                    "count": count,
                };
                Some((name.clone(), summary))
            })
            .collect::<Json>()
            .to_string()
    }

    /// Prometheus text exposition: counters and views as `counter`
    /// family samples, histograms as the conventional
    /// `_bucket{le=...}` / `_sum` / `_count` triple.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let map = self.metrics.lock();
        let mut out = String::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", c.get());
                }
                Metric::View(f) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", f());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    for (bound, cum) in h.cumulative() {
                        match bound {
                            Some(b) => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cum}");
                            }
                            None => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                            }
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum(), h.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `text` parses, and writing the parse gives `text` back.
    fn assert_round_trips(text: &str) {
        assert_eq!(
            Json::parse(text).map(|j| j.to_string()).as_deref(),
            Ok(text)
        );
    }

    #[test]
    fn counters_and_views_export_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b_second").add(2);
        reg.counter("a_first").inc();
        reg.register_view("c_view", || 7);
        assert_eq!(
            reg.counters_json(),
            "{\"a_first\":1,\"b_second\":2,\"c_view\":7}"
        );
        // A name is escaped like any other JSON string.
        reg.counter("d_\"odd\"").inc();
        assert_round_trips(&reg.counters_json());
        let prom = reg.to_prometheus();
        assert!(prom.contains("a_first 1"));
        assert!(prom.contains("c_view 7"));
    }

    #[test]
    fn counter_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("x").get(), 4);
    }

    #[test]
    fn histogram_buckets_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 108);
        assert_eq!(
            h.cumulative(),
            vec![(Some(1), 2), (Some(4), 3), (Some(16), 4), (None, 5)]
        );
        // Histograms stay out of the deterministic counter export.
        assert_eq!(reg.counters_json(), "{}");
        let prom = reg.to_prometheus();
        assert!(prom.contains("lat_bucket{le=\"+Inf\"} 5"));
        assert!(prom.contains("lat_count 5"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q", &[10, 20, 40]);
        // 10 observations uniformly in (0, 10]: all land in bucket <=10.
        for _ in 0..10 {
            h.observe(5);
        }
        // p50 of 10 obs in bucket (0,10] → rank 5 of 10 → 10 * 5/10 = 5.
        assert!((h.quantile(0.5) - 5.0).abs() < 1e-9, "{}", h.quantile(0.5));
        // All mass below 10: p100 interpolates to the bucket's top edge.
        assert!((h.quantile(1.0) - 10.0).abs() < 1e-9);
        // Add 10 more in (10,20]: p50 now sits exactly on the 10 edge.
        for _ in 0..10 {
            h.observe(15);
        }
        assert!((h.quantile(0.5) - 10.0).abs() < 1e-9);
        // p75 → rank 15 of 20 → 5 into the 10-wide (10,20] bucket → 15.
        assert!((h.quantile(0.75) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_edge_cases() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("edge", &[10, 20]);
        // Empty histogram: no mass to rank.
        assert_eq!(h.quantile(0.5), 0.0);
        // Everything in +Inf: clamp to the largest finite bound.
        h.observe(1_000);
        assert!((h.quantile(0.99) - 20.0).abs() < 1e-9);
        // A histogram with no finite bounds at all degenerates to 0.
        let inf_only = reg.histogram("inf_only", &[]);
        inf_only.observe(7);
        assert_eq!(inf_only.quantile(0.5), 0.0);
    }

    #[test]
    fn histograms_json_summarizes_and_counters_stay_clean() {
        let reg = MetricsRegistry::new();
        reg.counter("ops").add(3);
        let h = reg.histogram("lat_ns", &[100, 1_000]);
        for v in [50, 150, 5_000] {
            h.observe(v);
        }
        let json = reg.histograms_json();
        assert_round_trips(&json);
        assert!(json.contains("\"lat_ns\":{\"p50\""), "{json}");
        assert!(json.contains("\"count\":3"), "{json}");
        assert!(!json.contains("ops"), "counters must not leak: {json}");
        assert_eq!(reg.counters_json(), "{\"ops\":3}");
        assert_eq!(reg.counter_values(), vec![("ops".to_string(), 3)]);
    }

    #[test]
    fn hammered_histogram_stays_consistent() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = reg.histogram("hammer", &[8, 64, 512, 4_096]);
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.observe(w * 1_000 + (i % 97));
                }
            }));
        }
        // A concurrent reader must never see torn totals panic the
        // summarizers (values may be mid-flight, shapes must hold).
        let reader = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    assert_round_trips(&reg.histograms_json());
                    let _ = reg.to_prometheus();
                }
            })
        };
        for t in handles {
            t.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(h.count(), 40_000);
        let (_, total) = *h.cumulative().last().unwrap();
        assert_eq!(total, 40_000, "bucket counts must sum to count");
        let p999 = h.quantile(0.999);
        assert!(p999 > 0.0 && p999 <= 4_096.0, "{p999}");
    }
}
