//! Named counters, gauges, and log-bucketed latency histograms.
//!
//! Each protocol layer owns a [`MetricsRegistry`] (or contributes to
//! the cluster's); registries [`merge`](MetricsRegistry::merge) so the
//! driver can present one flat view. Histograms are log₂-bucketed
//! ([`LogHistogram`]) — constant memory regardless of sample count,
//! with percentile error bounded by the bucket width (< 2×), which is
//! plenty for the order-of-magnitude latency questions the repro asks.

use crate::time::Duration;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log₂ buckets: one per possible bit-length of a `u64`
/// nanosecond value, plus bucket 0 for zero.
const BUCKETS: usize = 65;

/// A fixed-size log₂-bucketed histogram of durations.
///
/// Sample `d` lands in bucket `64 - (d.ns).leading_zeros()` (zero in
/// bucket 0), so bucket `i > 0` covers `[2^(i-1), 2^i)` nanoseconds.
/// Exact `min`, `max`, `sum`, and `count` are kept alongside the
/// buckets; percentiles interpolate within the selected bucket and are
/// clamped to `[min, max]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(ns: u64) -> usize {
        (64 - ns.leading_zeros()) as usize
    }

    /// Lower bound (inclusive) of bucket `i`, in nanoseconds.
    fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: Duration) {
        self.record_value(d.as_nanos());
    }

    /// Records one dimensionless sample (e.g. a batch occupancy count).
    ///
    /// The buckets are the same log₂ buckets used for nanoseconds — a
    /// unit is whatever the caller says it is. Duration-flavoured
    /// accessors ([`min`](LogHistogram::min) etc.) then read in "nanos",
    /// so dimensionless histograms should be read via
    /// [`percentile`](LogHistogram::percentile)`.as_nanos()` and
    /// friends, interpreting the number in the caller's unit.
    pub fn record_value(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum_ns += v as u128;
        self.min_ns = self.min_ns.min(v);
        self.max_ns = self.max_ns.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest sample, or zero if empty.
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min_ns)
        }
    }

    /// Exact largest sample, or zero if empty.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Exact sum of all samples, in nanoseconds (dimensionless
    /// histograms: in the caller's unit).
    pub fn sum_nanos(&self) -> u128 {
        self.sum_ns
    }

    /// Exact mean, or zero if empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Approximate `p`-th percentile (`0.0 ..= 1.0`): walks the
    /// cumulative bucket counts to the sample rank and returns the
    /// geometric midpoint of that bucket, clamped to `[min, max]`.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = Self::bucket_floor(i);
                let hi = if i == 0 {
                    0
                } else {
                    lo.saturating_mul(2).saturating_sub(1)
                };
                let mid = lo + (hi - lo) / 2;
                return Duration::from_nanos(mid.clamp(self.min_ns, self.max_ns));
            }
        }
        self.max()
    }

    /// Approximate median.
    pub fn p50(&self) -> Duration {
        self.percentile(0.50)
    }

    /// Approximate 95th percentile.
    pub fn p95(&self) -> Duration {
        self.percentile(0.95)
    }

    /// Approximate 99th percentile.
    pub fn p99(&self) -> Duration {
        self.percentile(0.99)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// One-line summary: `count=… p50=… p95=… p99=… max=…`.
    pub fn summary(&self) -> String {
        format!(
            "count={} p50={} p95={} p99={} max={}",
            self.count,
            self.p50(),
            self.p95(),
            self.p99(),
            self.max()
        )
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are dotted paths scoped by layer, e.g.
/// `totem.token_retransmits`, `orb.requests_dispatched`,
/// `eternal.recovery_time`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, LogHistogram>,
}

/// Applies `change` to the metric called `name`, created at its default
/// on first use — the only time the name is copied into a key.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, change: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(metric) => change(metric),
        None => change(map.entry(name.to_owned()).or_default()),
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter, creating it at zero: adding 0
    /// registers a counter so it shows up in renders/exports even
    /// before its first increment.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        update(&mut self.counters, name, |c| *c += n);
    }

    /// Current value of the named counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of the named gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into the named histogram (creating it).
    pub fn histogram_record(&mut self, name: &str, d: Duration) {
        update(&mut self.histograms, name, |h| h.record(d));
    }

    /// Records a dimensionless sample into the named histogram (see
    /// [`LogHistogram::record_value`]).
    pub fn histogram_record_value(&mut self, name: &str, v: u64) {
        update(&mut self.histograms, name, |h| h.record_value(v));
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the other's value, histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Multi-line human-readable dump, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k} = {v} (gauge)");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(out, "{k}: {}", h.summary());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(us(i));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), us(1));
        assert_eq!(h.max(), us(1000));
        // Log buckets: p50 must land within a factor of 2 of the true
        // median (500us).
        let p50 = h.p50().as_nanos();
        assert!(
            (250_000..=1_000_000).contains(&p50),
            "p50 {p50}ns out of range"
        );
        let p99 = h.p99().as_nanos();
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(h.p95() <= h.max());
        // Sum of 1..=1000 us is 500_500 us; mean is 500.5 us.
        assert_eq!(h.mean(), Duration::from_nanos(500_500));
    }

    #[test]
    fn histogram_empty_and_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        let mut h = LogHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn histogram_single_sample_is_exact() {
        let mut h = LogHistogram::new();
        h.record(us(123));
        // Clamping to [min, max] makes single-sample percentiles exact.
        assert_eq!(h.p50(), us(123));
        assert_eq!(h.p99(), us(123));
        assert_eq!(h.mean(), us(123));
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(us(10));
        b.record(us(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), us(10));
        assert_eq!(a.max(), us(1000));
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.counter_add("totem.retransmits", 3);
        r.counter_add("totem.retransmits", 2);
        r.counter_add("totem.reformations", 0);
        r.gauge_set("ring.size", 4);
        r.histogram_record("orb.round_trip", us(100));
        assert_eq!(r.counter("totem.retransmits"), 5);
        assert_eq!(r.counter("totem.reformations"), 0);
        assert_eq!(r.counter("unknown"), 0);
        assert_eq!(r.gauge("ring.size"), Some(4));
        assert_eq!(r.histogram("orb.round_trip").unwrap().count(), 1);
        // Zero-add registers the name for rendering.
        assert!(r.counters().any(|(k, _)| k == "totem.reformations"));
        let text = r.render();
        assert!(text.contains("totem.retransmits = 5"));
        assert!(text.contains("ring.size = 4 (gauge)"));
        assert!(text.contains("orb.round_trip: count=1"));
    }

    #[test]
    fn dimensionless_values_share_the_buckets() {
        let mut h = LogHistogram::new();
        for occupancy in [1u64, 1, 2, 4, 8] {
            h.record_value(occupancy);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min().as_nanos(), 1);
        assert_eq!(h.max().as_nanos(), 8);
        let mut r = MetricsRegistry::new();
        r.histogram_record_value("totem.batch.occupancy", 3);
        assert_eq!(r.histogram("totem.batch.occupancy").unwrap().count(), 1);
    }

    #[test]
    fn registry_merge() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        b.gauge_set("g", 7);
        b.histogram_record("h", us(5));
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(7));
        assert_eq!(a.histogram("h").unwrap().count(), 1);
    }
}
