//! A typed, zero-external-dependency metrics registry.
//!
//! The paper's evaluation (and `KernelStats`) reports only aggregate sums
//! and averages; this crate is the substrate for *distributions*: counters,
//! gauges, and log-linear [`Histogram`]s (exact count/sum, bounded-error
//! p50/p90/p99, exact max) keyed by metric name plus a small label set —
//! e.g. `asc_verify_cycles{path="warm"}`. The kernel's trap handler, the
//! installer, and the bench harnesses all record into a [`Registry`];
//! [`Snapshot`]s are mergeable across kernels (multi-program benchmarks run
//! tools on separate kernels and report one distribution) and render as
//! [`asc_core::json`] values ([`Snapshot::to_value`]).
//!
//! Like the flight recorder, metrics follow the **no-perturbation rule**:
//! recording is attached behind an off-by-default option and never feeds
//! back into the cost model, so charged cycles and the paper tables are
//! byte-identical with or without a registry attached.

mod histogram;

pub use histogram::Histogram;

use std::collections::BTreeMap;

use asc_core::json::Value;

/// A metric's identity: its name plus a (sorted) label set.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: `snake_case`, unit-suffixed).
    pub name: String,
    /// Label pairs, sorted by key so equal label sets compare equal
    /// regardless of construction order.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders as `name` or `name{k="v",...}`. Label values are escaped
    /// per the Prometheus text exposition format.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let body: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
/// Everything else (including other control characters and UTF-8) passes
/// through untouched, exactly as the format specifies.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// One metric's current value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(f64),
    /// A value distribution.
    Histogram(Histogram),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Handle to a registered counter (stable for the registry's lifetime).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// The metrics registry. Registration resolves `(name, labels)` to a dense
/// handle once; the hot path (the trap handler records per-syscall) is then
/// an array index, no lookups and no allocation.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Vec<(MetricKey, MetricValue)>,
    index: BTreeMap<MetricKey, usize>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn slot(&mut self, key: MetricKey, init: MetricValue) -> usize {
        if let Some(&i) = self.index.get(&key) {
            assert_eq!(
                self.metrics[i].1.type_name(),
                init.type_name(),
                "metric `{}` re-registered as a different type",
                key.render()
            );
            return i;
        }
        let i = self.metrics.len();
        self.index.insert(key.clone(), i);
        self.metrics.push((key, init));
        i
    }

    /// Registers (or finds) a counter.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric type.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(self.slot(MetricKey::new(name, labels), MetricValue::Counter(0)))
    }

    /// Registers (or finds) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric type.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(self.slot(MetricKey::new(name, labels), MetricValue::Gauge(0.0)))
    }

    /// Registers (or finds) a histogram.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric type.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramId {
        HistogramId(self.slot(
            MetricKey::new(name, labels),
            MetricValue::Histogram(Histogram::new()),
        ))
    }

    /// Adds `n` to a counter.
    pub fn inc(&mut self, id: CounterId, n: u64) {
        match &mut self.metrics[id.0].1 {
            MetricValue::Counter(c) => *c += n,
            _ => unreachable!("CounterId always indexes a counter"),
        }
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        match &mut self.metrics[id.0].1 {
            MetricValue::Gauge(g) => *g = value,
            _ => unreachable!("GaugeId always indexes a gauge"),
        }
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        match &mut self.metrics[id.0].1 {
            MetricValue::Histogram(h) => h.record(value),
            _ => unreachable!("HistogramId always indexes a histogram"),
        }
    }

    /// Immutable view of a histogram.
    pub fn histogram_at(&self, id: HistogramId) -> &Histogram {
        match &self.metrics[id.0].1 {
            MetricValue::Histogram(h) => h,
            _ => unreachable!("HistogramId always indexes a histogram"),
        }
    }

    /// A point-in-time, mergeable copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// A mergeable point-in-time copy of a [`Registry`]'s metrics, ordered by
/// key so every rendering is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    entries: BTreeMap<MetricKey, MetricValue>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// The entries, in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.entries.iter()
    }

    /// Looks up one metric by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries.get(&MetricKey::new(name, labels))
    }

    /// The histogram under `(name, labels)`, if that metric is one.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.get(name, labels) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The counter value under `(name, labels)`, if that metric is one.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Sums a histogram-valued metric's `sum` over every label combination
    /// it was recorded under (the cross-path reconstruction identity:
    /// `sum_over_labels(asc_verify_cycles) == KernelStats::verify_cycles`).
    pub fn histogram_sum_across_labels(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| match v {
                MetricValue::Histogram(h) => h.sum(),
                _ => 0,
            })
            .sum()
    }

    /// Merges a histogram-valued metric across every label combination.
    pub fn histogram_across_labels(&self, name: &str) -> Histogram {
        let mut merged = Histogram::new();
        for (k, v) in &self.entries {
            if k.name == name {
                if let MetricValue::Histogram(h) = v {
                    merged.merge(h);
                }
            }
        }
        merged
    }

    /// Merges `other` into `self`: counters and histograms add (associative
    /// and commutative, exact); gauges keep the maximum, the high-water
    /// mark a merged report wants from point-in-time levels.
    pub fn merge(&mut self, other: &Snapshot) {
        for (key, value) in &other.entries {
            self.merge_entry(key, value);
        }
    }

    /// Merges a registry's current contents directly into this snapshot,
    /// with the same semantics as [`Snapshot::merge`] but without
    /// materialising an intermediate `Snapshot` per source. A fleet
    /// harness folding a thousand kernels' registries into one report
    /// clones each metric key at most once (on first sight) instead of
    /// once per kernel.
    pub fn absorb_registry(&mut self, registry: &Registry) {
        for (key, value) in &registry.metrics {
            self.merge_entry(key, value);
        }
    }

    fn merge_entry(&mut self, key: &MetricKey, value: &MetricValue) {
        match self.entries.get_mut(key) {
            None => {
                self.entries.insert(key.clone(), value.clone());
            }
            Some(mine) => match (mine, value) {
                (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
                (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                (mine, theirs) => panic!(
                    "metric `{}` is a {} here but a {} in the merged snapshot",
                    key.render(),
                    mine.type_name(),
                    theirs.type_name()
                ),
            },
        }
    }

    /// Renders as an [`asc_core::json`] value: an array of entries, each
    /// `{name, labels, type, ...}`; histograms carry exact count/sum/min/max,
    /// the p50/p90/p99 quantiles, and the non-empty `[upper, count]` buckets.
    pub fn to_value(&self) -> Value {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|(key, value)| {
                let mut fields = vec![
                    ("name".to_string(), Value::Str(key.name.clone())),
                    (
                        "labels".to_string(),
                        Value::Object(
                            key.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                    (
                        "type".to_string(),
                        Value::Str(value.type_name().to_string()),
                    ),
                ];
                match value {
                    MetricValue::Counter(c) => {
                        fields.push(("value".to_string(), Value::Num(*c as f64)));
                    }
                    MetricValue::Gauge(g) => {
                        fields.push(("value".to_string(), Value::Num(*g)));
                    }
                    MetricValue::Histogram(h) => {
                        fields.push(("count".to_string(), Value::Num(h.count() as f64)));
                        fields.push(("sum".to_string(), Value::Num(h.sum() as f64)));
                        fields.push(("min".to_string(), Value::Num(h.min() as f64)));
                        fields.push(("max".to_string(), Value::Num(h.max() as f64)));
                        fields.push(("p50".to_string(), Value::Num(h.quantile(0.50) as f64)));
                        fields.push(("p90".to_string(), Value::Num(h.quantile(0.90) as f64)));
                        fields.push(("p99".to_string(), Value::Num(h.quantile(0.99) as f64)));
                        fields.push((
                            "buckets".to_string(),
                            Value::Array(
                                h.nonzero_buckets()
                                    .map(|(upper, count)| {
                                        Value::Array(vec![
                                            Value::Num(upper as f64),
                                            Value::Num(count as f64),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ));
                    }
                }
                Value::Object(fields)
            })
            .collect();
        Value::Array(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_deduplicated() {
        let mut r = Registry::new();
        let a = r.counter("calls_total", &[("path", "cold")]);
        let b = r.counter("calls_total", &[("path", "cold")]);
        assert_eq!(a, b, "same key resolves to the same handle");
        let c = r.counter("calls_total", &[("path", "warm")]);
        assert_ne!(a, c);
        r.inc(a, 2);
        r.inc(c, 5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("calls_total", &[("path", "cold")]), Some(2));
        assert_eq!(snap.counter("calls_total", &[("path", "warm")]), Some(5));
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = Registry::new();
        let a = r.gauge("g", &[("a", "1"), ("b", "2")]);
        let b = r.gauge("g", &[("b", "2"), ("a", "1")]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_is_rejected() {
        let mut r = Registry::new();
        r.counter("m", &[]);
        r.histogram("m", &[]);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_histograms() {
        let mut r1 = Registry::new();
        let c1 = r1.counter("n", &[]);
        let h1 = r1.histogram("h", &[]);
        r1.inc(c1, 3);
        r1.observe(h1, 100);
        let mut r2 = Registry::new();
        let c2 = r2.counter("n", &[]);
        let h2 = r2.histogram("h", &[]);
        let g2 = r2.gauge("g", &[]);
        r2.inc(c2, 4);
        r2.observe(h2, 200);
        r2.observe(h2, 300);
        r2.set(g2, 7.5);

        let mut merged = r1.snapshot();
        merged.merge(&r2.snapshot());
        assert_eq!(merged.counter("n", &[]), Some(7));
        let h = merged.histogram("h", &[]).expect("histogram merged");
        assert_eq!((h.count(), h.sum()), (3, 600));
        assert_eq!(
            merged.get("g", &[]),
            Some(&MetricValue::Gauge(7.5)),
            "absent gauge adopts the other side's value"
        );
    }

    #[test]
    fn absorb_registry_matches_snapshot_merge() {
        let mut r1 = Registry::new();
        let c1 = r1.counter("n", &[("shard", "3")]);
        let h1 = r1.histogram("h", &[]);
        r1.inc(c1, 3);
        r1.observe(h1, 100);
        let mut r2 = Registry::new();
        let c2 = r2.counter("n", &[("shard", "3")]);
        let h2 = r2.histogram("h", &[]);
        r2.inc(c2, 4);
        r2.observe(h2, 250);

        let mut via_merge = Snapshot::new();
        via_merge.merge(&r1.snapshot());
        via_merge.merge(&r2.snapshot());
        let mut via_absorb = Snapshot::new();
        via_absorb.absorb_registry(&r1);
        via_absorb.absorb_registry(&r2);
        assert_eq!(via_absorb, via_merge, "absorb is merge without the clone");
        assert_eq!(via_absorb.counter("n", &[("shard", "3")]), Some(7));
    }

    #[test]
    fn json_rendering_parses_back() {
        let mut r = Registry::new();
        let h = r.histogram("h", &[("k", "v")]);
        r.observe(h, 42);
        let c = r.counter("c", &[]);
        r.inc(c, 9);
        let value = r.snapshot().to_value();
        let text = value.to_pretty();
        let parsed = asc_core::json::Value::parse(&text).expect("snapshot JSON parses");
        assert_eq!(parsed, value, "snapshot JSON round-trips");
    }

    /// Inverse of [`escape_label_value`], for the round-trip tests: a
    /// Prometheus scraper's unescaping of `\\`, `\"`, and `\n`.
    fn unescape_label_value(escaped: &str) -> String {
        let mut out = String::with_capacity(escaped.len());
        let mut chars = escaped.chars();
        while let Some(ch) = chars.next() {
            if ch != '\\' {
                out.push(ch);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn hostile_label_values_escape_and_round_trip() {
        let hostile = [
            "plain",
            "back\\slash",
            "quo\"te",
            "line\nfeed",
            "\\\"\n",
            "\\n is literal backslash-n",
            "trailing\\",
            "mixed \\ \" \n déjà-vu",
        ];
        for value in hostile {
            let escaped = escape_label_value(value);
            assert!(!escaped.contains('\n'), "newline survived: {escaped:?}");
            assert_eq!(
                unescape_label_value(&escaped),
                value,
                "escaping must round-trip {value:?}"
            );
        }
    }

    #[test]
    fn key_render_escapes_hostile_label_values() {
        let key = MetricKey::new("hits_total", &[("path", "bad\\path\"with\nnewline")]);
        assert_eq!(
            key.render(),
            "hits_total{path=\"bad\\\\path\\\"with\\nnewline\"}"
        );
    }

    #[test]
    fn cross_label_reconstruction_helpers() {
        let mut r = Registry::new();
        for (path, v) in [("cold", 100u64), ("warm", 20), ("warm", 30)] {
            let h = r.histogram("cycles", &[("path", path)]);
            r.observe(h, v);
        }
        let snap = r.snapshot();
        assert_eq!(snap.histogram_sum_across_labels("cycles"), 150);
        let merged = snap.histogram_across_labels("cycles");
        assert_eq!((merged.count(), merged.sum()), (3, 150));
    }
}
