//! The named metric registry and its exposition encoders.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::histogram::Histogram;
use crate::json_escape;
use crate::primitives::{Counter, Gauge};

/// One registered metric handle.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotonic counter.
    Counter(Counter),
    /// An up/down gauge.
    Gauge(Gauge),
    /// A log-bucketed histogram.
    Histogram(Histogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    metric: Metric,
}

/// A named collection of metric handles with Prometheus-text and JSON
/// exposition.
///
/// Cloning a `Registry` is an `Arc` bump: the pipeline hands the same
/// registry to every component, each registers its metrics once at
/// construction, and any holder can encode the full set at any time.
/// Registration order is preserved in the output. The same metric name
/// may be registered repeatedly with different labels (one time series
/// per label set, Prometheus-style).
///
/// ```
/// let r = hh_obs::Registry::new();
/// let c = r.counter("requests_total", "requests received");
/// c.inc();
/// let text = r.to_prometheus();
/// assert!(text.contains("# TYPE requests_total counter"));
/// assert!(text.contains("requests_total 1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl Registry {
    /// A new, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, name: &str, labels: &[(&str, &str)], help: &str, metric: Metric) {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name {name:?} is not a valid exposition identifier"
        );
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Entry {
                name: name.to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                help: help.to_string(),
                metric,
            });
    }

    /// Creates, registers and returns a new [`Counter`].
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Creates, registers and returns a labeled [`Counter`].
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        let c = Counter::new();
        self.register_counter(name, labels, help, &c);
        c
    }

    /// Creates, registers and returns a new [`Gauge`].
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Creates, registers and returns a labeled [`Gauge`].
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        let g = Gauge::new();
        self.register_gauge(name, labels, help, &g);
        g
    }

    /// Creates, registers and returns a new [`Histogram`].
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, &[], help)
    }

    /// Creates, registers and returns a labeled [`Histogram`].
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        let h = Histogram::new();
        self.register_histogram(name, labels, help, &h);
        h
    }

    /// Registers an existing counter handle (for metrics that live in
    /// statics or other owners).
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], help: &str, c: &Counter) {
        self.push(name, labels, help, Metric::Counter(c.clone()));
    }

    /// Registers an existing gauge handle.
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)], help: &str, g: &Gauge) {
        self.push(name, labels, help, Metric::Gauge(g.clone()));
    }

    /// Registers an existing histogram handle.
    pub fn register_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        h: &Histogram,
    ) {
        self.push(name, labels, help, Metric::Histogram(h.clone()));
    }

    /// Number of registered time series.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders every metric in the Prometheus text exposition format.
    ///
    /// Counters and gauges are plain samples; histograms are rendered as
    /// `summary` families (`{quantile="…"}` samples plus `_sum`,
    /// `_count` and a `_max` gauge). `# HELP` / `# TYPE` headers are
    /// emitted once per family, at its first occurrence.
    pub fn to_prometheus(&self) -> String {
        let entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if !seen.contains(&e.name.as_str()) {
                seen.push(&e.name);
                let kind = match e.metric {
                    Metric::Histogram(_) => "summary",
                    _ => e.metric.type_name(),
                };
                let _ = writeln!(out, "# HELP {} {}", e.name, e.help.replace('\n', " "));
                let _ = writeln!(out, "# TYPE {} {kind}", e.name);
            }
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        e.name,
                        prom_labels(&e.labels, None),
                        c.get()
                    );
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        e.name,
                        prom_labels(&e.labels, None),
                        g.get()
                    );
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                        let _ = writeln!(
                            out,
                            "{}{} {v}",
                            e.name,
                            prom_labels(&e.labels, Some(("quantile", q)))
                        );
                    }
                    let labels = prom_labels(&e.labels, None);
                    let _ = writeln!(out, "{}_sum{labels} {}", e.name, s.sum);
                    let _ = writeln!(out, "{}_count{labels} {}", e.name, s.count);
                    let _ = writeln!(out, "{}_max{labels} {}", e.name, s.max);
                }
            }
        }
        out
    }

    /// Renders every metric as one JSON object:
    /// `{"metrics":[{"name":…,"type":…,"labels":{…},…}]}`.
    ///
    /// Scalar metrics carry `"value"`; histograms carry `"count"`,
    /// `"sum"`, `"max"`, `"p50"`, `"p90"`, `"p99"`. Hand-rolled (this
    /// crate has no dependencies) but valid JSON, including escaping.
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::from("{\"metrics\":[");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"type\":\"{}\",\"labels\":{{",
                json_escape(&e.name),
                e.metric.type_name()
            );
            for (j, (k, v)) in e.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push('}');
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = write!(out, ",\"value\":{}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, ",\"value\":{}", g.get());
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}",
                        s.count, s.sum, s.max, s.p50, s.p90, s.p99
                    );
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Renders a Prometheus label set, optionally with one extra label
/// appended (the `quantile` of a summary sample). Empty sets render as
/// nothing.
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", prom_escape(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", prom_escape(v));
    }
    out.push('}');
    out
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_rendering_scalar_metrics() {
        let r = Registry::new();
        let c = r.counter_with("items_total", &[("shard", "3")], "items seen");
        c.add(42);
        let g = r.gauge("queue_depth", "queued batches");
        g.set(-2);
        let text = r.to_prometheus();
        assert!(text.contains("# HELP items_total items seen"), "{text}");
        assert!(text.contains("# TYPE items_total counter"), "{text}");
        assert!(text.contains("items_total{shard=\"3\"} 42"), "{text}");
        assert!(text.contains("# TYPE queue_depth gauge"), "{text}");
        assert!(text.contains("queue_depth -2"), "{text}");
    }

    #[test]
    fn prometheus_histogram_renders_as_summary() {
        let r = Registry::new();
        let h = r.histogram_with("lat_ns", &[("shard", "0")], "latency");
        h.record(100);
        h.record(100);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE lat_ns summary"), "{text}");
        assert!(
            text.contains("lat_ns{shard=\"0\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("lat_ns_sum{shard=\"0\"} 200"), "{text}");
        assert!(text.contains("lat_ns_count{shard=\"0\"} 2"), "{text}");
        assert!(text.contains("lat_ns_max{shard=\"0\"} 100"), "{text}");
    }

    #[test]
    fn help_and_type_emitted_once_per_family() {
        let r = Registry::new();
        for shard in 0..3 {
            let c = r.counter_with("per_shard_total", &[("shard", &shard.to_string())], "x");
            c.add(shard);
        }
        let text = r.to_prometheus();
        assert_eq!(text.matches("# TYPE per_shard_total counter").count(), 1);
        assert_eq!(text.matches("per_shard_total{").count(), 3);
    }

    #[test]
    fn json_rendering_is_wellformed_and_escaped() {
        let r = Registry::new();
        let c = r.counter_with("c_total", &[("name", "we\"ird\\label")], "");
        c.inc();
        let h = r.histogram("h_ns", "");
        h.record(7);
        let json = r.to_json();
        assert!(json.starts_with("{\"metrics\":["), "{json}");
        assert!(json.contains("\"we\\\"ird\\\\label\""), "{json}");
        assert!(json.contains("\"type\":\"histogram\""), "{json}");
        assert!(json.contains("\"p50\":7"), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new();
        let c = r.counter("shared_total", "");
        let r2 = r.clone();
        c.add(5);
        assert_eq!(r2.len(), 1);
        assert!(r2.to_prometheus().contains("shared_total 5"));
        assert!(!r.is_empty());
    }
}
