//! A process-wide metrics registry with Prometheus-style text exposition.
//!
//! [`Registry`] is the *live* counterpart of [`crate::agg::RunReport`]:
//! where a report folds one finished event stream into a deterministic
//! summary, a registry accumulates counters, gauges and histograms across
//! the lifetime of a long-running process (the `pi-serve` daemon's
//! `/metrics` endpoint is the first consumer) and renders them on demand
//! in the Prometheus text format — `# TYPE` comments, `name value` sample
//! lines, and cumulative `_bucket{le="..."}` series for histograms.
//!
//! The registry is cheap and thread-safe (one mutex around three
//! `BTreeMap`s), and rendering is deterministic for a given registry
//! state: metrics sort by name, floats print via Rust's shortest-roundtrip
//! formatting. Wall-clock derived values (uptime, latency histograms) are
//! inherently nondeterministic — exposition is for live monitoring, never
//! for the same-seed diff gates.

use crate::agg::{Histogram, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Live metric accumulator. Create one per process (or per subsystem),
/// share it behind an `Arc`, and render with
/// [`Registry::render_prometheus`].
pub struct Registry {
    inner: Mutex<Inner>,
    start: Instant,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Fold a metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`); every other byte becomes `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            start: Instant::now(),
        }
    }

    /// Set a monotonic counter to an absolute value — for mirroring a
    /// total that another subsystem already maintains (queue stats, cache
    /// totals) at scrape time.
    pub fn counter_set(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.counters.insert(sanitize(name), value);
    }

    /// Set an instantaneous gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.gauges.insert(sanitize(name), value);
    }

    /// Record one sample into a fixed-bucket histogram (the
    /// [`crate::agg::Histogram`] power-of-two buckets).
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.hists.entry(sanitize(name)).or_default().record(value);
    }

    /// Whole seconds since this registry was created.
    pub fn uptime_seconds(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Upper bound (`le` label) of histogram bucket `i`, matching
    /// [`Histogram::bucket_of`]: bucket 0 holds negatives (`le="0"`),
    /// bucket 1 is `[0,1)`, bucket `i` tops out at `2^(i-1)`, the last
    /// bucket is `+Inf`.
    fn bucket_le(i: usize) -> String {
        match i {
            0 => "0".to_string(),
            i if i < HISTOGRAM_BUCKETS - 1 => format!("{}", 1u64 << (i - 1)),
            _ => "+Inf".to_string(),
        }
    }

    /// Render every metric in the Prometheus text exposition format:
    /// sorted by name, one `# TYPE` comment per family, cumulative
    /// buckets plus `_sum`/`_count` for histograms, and a synthetic
    /// `uptime_seconds` gauge. Ends with a newline.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = String::new();
        for (name, value) in &inner.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &inner.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &inner.hists {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cum += c;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    Self::bucket_le(i)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out.push_str(&format!(
            "# TYPE uptime_seconds gauge\nuptime_seconds {}\n",
            self.uptime_seconds()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_set_overrides_the_previous_total() {
        let r = Registry::new();
        r.counter_set("jobs_total", 5);
        assert!(r.render_prometheus().contains("jobs_total 5\n"));
        r.counter_set("jobs_total", 9);
        let text = r.render_prometheus();
        assert!(text.contains("jobs_total 9\n") && !text.contains("jobs_total 5"));
    }

    #[test]
    fn names_are_sanitized_into_the_prometheus_charset() {
        let r = Registry::new();
        r.counter_set("pi-serve jobs.total", 1);
        assert!(r.render_prometheus().contains("pi_serve_jobs_total 1\n"));
        // A leading digit is not a valid first character.
        r.gauge_set("9lives", 1.0);
        assert!(r.render_prometheus().contains("\n_lives 1\n"));
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_typed() {
        let r = Registry::new();
        r.gauge_set("queue_depth", 3.0);
        r.counter_set("b_total", 1);
        r.counter_set("a_total", 2);
        let text = r.render_prometheus();
        let a = text.find("a_total 2").expect("a_total rendered");
        let b = text.find("b_total 1").expect("b_total rendered");
        assert!(a < b, "counters sort by name");
        assert!(text.contains("# TYPE a_total counter\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth 3\n"));
        assert!(text.contains("# TYPE uptime_seconds gauge\n"));
        assert!(text.ends_with('\n'));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let r = Registry::new();
        for v in [0.5, 1.5, 1.5, 100.0] {
            r.observe("latency_ms", v);
        }
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE latency_ms histogram\n"));
        // 0.5 lands below le=1; the two 1.5s join it below le=2.
        assert!(text.contains("latency_ms_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("latency_ms_bucket{le=\"2\"} 3\n"));
        assert!(text.contains("latency_ms_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("latency_ms_sum 103.5\n"));
        assert!(text.contains("latency_ms_count 4\n"));
    }
}
