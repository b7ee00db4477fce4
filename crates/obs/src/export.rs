//! Pluggable sinks: Chrome `trace_event` JSON, a metrics snapshot
//! document, and the Prometheus text exposition.
//!
//! All emitters are pure functions of already-collected records, so the
//! same records always render to the same bytes. JSON is written with
//! Rust's shortest round-trip `f64` formatting (non-finite values
//! become `null`), and object keys appear in a fixed order.

use crate::metrics::{MetricValue, MetricsSnapshot};
use crate::span::SpanRecord;
use std::fmt::Write as _;

/// Formats an `f64` as a JSON number (`null` for non-finite values).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` omits the decimal point for integral floats; keep JSON
        // readers that care about number shape happy either way.
        s
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal (without quotes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64_list(vals: &[f64]) -> String {
    let items: Vec<String> = vals.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", items.join(","))
}

fn json_u64_list(vals: &[u64]) -> String {
    let items: Vec<String> = vals.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// One complete-event (`"ph":"X"`) object in Chrome `trace_event`
/// format. `ts`/`dur` are microseconds; the exact nanosecond values
/// ride along in `args` so tools (and tests) never depend on the µs
/// rounding.
fn chrome_event(s: &SpanRecord) -> String {
    #[allow(clippy::cast_precision_loss)]
    let ts_us = s.start_ns as f64 / 1e3;
    #[allow(clippy::cast_precision_loss)]
    let dur_us = s.dur_ns as f64 / 1e3;
    let mut args = format!("\"start_ns\":{},\"dur_ns\":{}", s.start_ns, s.dur_ns);
    if let Some(parent) = s.parent {
        let _ = write!(args, ",\"parent\":{parent}");
    }
    if let Some(shard) = s.shard {
        let _ = write!(args, ",\"shard\":{shard}");
    }
    if let Some(req) = s.req {
        let _ = write!(args, ",\"req\":{req}");
    }
    if s.items > 0 {
        let _ = write!(args, ",\"items\":{}", s.items);
        if let Some(ips) = s.items_per_sec() {
            let _ = write!(args, ",\"items_per_sec\":{}", json_f64(ips));
        }
    }
    format!(
        "{{\"name\":\"{}\",\"cat\":\"ntc\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"id\":{},\"args\":{{{}}}}}",
        json_escape(&s.name),
        s.thread,
        json_f64(ts_us),
        json_f64(dur_us),
        s.id,
        args
    )
}

/// Renders spans as a Chrome `trace_event` document, loadable in
/// `chrome://tracing` and Perfetto.
#[must_use]
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"ntc repro\"}}",
    );
    for s in spans {
        out.push_str(",\n");
        out.push_str(&chrome_event(s));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn metric_value_json(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(n) => format!("{{\"type\":\"counter\",\"value\":{n}}}"),
        MetricValue::Gauge(g) => {
            format!("{{\"type\":\"gauge\",\"value\":{}}}", json_f64(*g))
        }
        MetricValue::Histogram(h) => format!(
            "{{\"type\":\"histogram\",\"bounds\":{},\"buckets\":{},\"count\":{},\"sum\":{},\"ignored\":{}}}",
            json_f64_list(&h.bounds),
            json_u64_list(&h.buckets),
            h.count(),
            json_f64(h.sum),
            h.ignored
        ),
    }
}

/// Renders a metrics snapshot as one JSON object keyed by metric name,
/// in ascending name order.
///
/// The registry snapshot is already name-sorted, but the order is
/// re-established here so the emitted bytes are deterministic for *any*
/// snapshot — including hand-built or merged ones — and regression
/// tooling can byte-compare metrics files across runs.
#[must_use]
pub fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    let mut entries: Vec<&(String, MetricValue)> = snapshot.entries.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (name, value)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "  \"{}\": {}", json_escape(name), metric_value_json(value));
    }
    out.push_str("\n}\n");
    out
}

/// Rewrites a metric name as a Prometheus metric name: every character
/// outside `[a-zA-Z0-9_:]` becomes `_` (so `serve.latency_ms` →
/// `serve_latency_ms`), with a leading `_` prepended when the first
/// character would otherwise be a digit. Distinct dotted names that
/// collide after rewriting would both be emitted; the workspace's
/// dotted vocabulary (DESIGN.md §12) has no such pair.
#[must_use]
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphabetic() || c == '_' || c == ':' || (c.is_ascii_digit() && i > 0) {
            out.push(c);
        } else if c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n` — the exposition-format rules).
#[must_use]
pub fn prom_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a Prometheus sample value (`NaN`, `+Inf`,
/// `-Inf` spellings for non-finite values).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a metrics snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# TYPE` lines, counters suffixed `_total`,
/// histograms as **cumulative** `_bucket{le="…"}` series capped by
/// `le="+Inf"` plus `_sum`/`_count`, all in ascending name order so the
/// emitted bytes are deterministic for a given snapshot. Histograms
/// with rejected non-finite observations get an extra
/// `<name>_ignored_total` counter so bad data stays visible in scrapes.
#[must_use]
pub fn metrics_prom(snapshot: &MetricsSnapshot) -> String {
    let mut entries: Vec<&(String, MetricValue)> = snapshot.entries.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    for (name, value) in entries {
        let base = prom_name(name);
        match value {
            MetricValue::Counter(n) => {
                let _ = writeln!(out, "# TYPE {base}_total counter");
                let _ = writeln!(out, "{base}_total {n}");
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {base} gauge");
                let _ = writeln!(out, "{base} {}", prom_f64(*g));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {base} histogram");
                let mut cum = 0u64;
                for (i, &count) in h.buckets.iter().enumerate() {
                    cum += count;
                    let le = match h.bounds.get(i) {
                        Some(&b) => prom_f64(b),
                        None => "+Inf".to_string(),
                    };
                    let _ = writeln!(out, "{base}_bucket{{le=\"{}\"}} {cum}", prom_escape(&le));
                }
                let _ = writeln!(out, "{base}_sum {}", prom_f64(h.sum));
                let _ = writeln!(out, "{base}_count {cum}");
                if h.ignored > 0 {
                    let _ = writeln!(out, "# TYPE {base}_ignored_total counter");
                    let _ = writeln!(out, "{base}_ignored_total {}", h.ignored);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn sample_spans() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "exec.par_map".into(),
                thread: 0,
                start_ns: 1_000,
                dur_ns: 9_000,
                shard: None,
                req: None,
                items: 0,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "exec.par_map.worker".into(),
                thread: 1,
                start_ns: 2_000,
                dur_ns: 4_000,
                shard: Some(3),
                req: Some(42),
                items: 128,
            },
        ]
    }

    fn sample_metrics() -> MetricsSnapshot {
        // Deliberately NOT name-sorted: the JSON exporter must restore
        // the order itself.
        MetricsSnapshot {
            entries: vec![
                ("memcalc.cache.hit_rate".into(), MetricValue::Gauge(0.998)),
                ("mc.samples".into(), MetricValue::Counter(4096)),
                (
                    "shard.ns".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        bounds: vec![1e3, 1e6],
                        buckets: vec![1, 2, 0],
                        sum: 4000.0,
                        ignored: 0,
                    }),
                ),
            ],
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let t = chrome_trace(&sample_spans());
        assert!(t.starts_with("{\"traceEvents\":["));
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("\"shard\":3"));
        assert!(t.contains("\"parent\":1"));
        assert!(t.contains("\"items\":128"));
        // Deterministic for identical input.
        assert_eq!(t, chrome_trace(&sample_spans()));
    }

    #[test]
    fn metrics_json_orders_and_types() {
        let m = metrics_json(&sample_metrics());
        let hit = m.find("memcalc.cache.hit_rate").unwrap();
        let samples = m.find("mc.samples").unwrap();
        assert!(samples < hit, "name-sorted output even from unsorted input");
        assert!(m.contains("\"type\":\"histogram\""));
        assert!(m.contains("\"count\":3"));
        assert!(m.contains("\"ignored\":0"));
        // Byte-deterministic for equal snapshots.
        assert_eq!(m, metrics_json(&sample_metrics()));
    }

    #[test]
    fn escape_and_nonfinite() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn span_req_is_emitted_only_when_present() {
        let trace = chrome_trace(&sample_spans());
        let event = |name: &str| {
            let key = format!("\"name\":\"{name}\"");
            trace.lines().find(|l| l.contains(&key)).expect("one event line per span")
        };
        let outer = event("exec.par_map");
        assert!(!outer.contains("\"req\""), "span without req stays req-free: {outer}");
        assert!(event("exec.par_map.worker").contains("\"req\":42"));
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("serve.latency_ms"), "serve_latency_ms");
        assert_eq!(prom_name("serve.rejected_503"), "serve_rejected_503");
        assert_eq!(prom_name("ns:scoped"), "ns:scoped");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a-b c"), "a_b_c");
    }

    #[test]
    fn prom_escape_rules() {
        assert_eq!(prom_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(prom_escape("plain"), "plain");
    }

    #[test]
    fn metrics_prom_exposition_shape() {
        let out = metrics_prom(&sample_metrics());
        // Counter: _total suffix, TYPE line precedes the sample.
        assert!(out.contains("# TYPE mc_samples_total counter\nmc_samples_total 4096\n"));
        // Gauge.
        assert!(out.contains("# TYPE memcalc_cache_hit_rate gauge\nmemcalc_cache_hit_rate 0.998\n"));
        // Histogram: cumulative buckets capped by +Inf, then sum/count.
        assert!(out.contains("# TYPE shard_ns histogram\n"));
        assert!(out.contains("shard_ns_bucket{le=\"1000\"} 1\n"));
        assert!(out.contains("shard_ns_bucket{le=\"1000000\"} 3\n"));
        assert!(out.contains("shard_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(out.contains("shard_ns_sum 4000\n"));
        assert!(out.contains("shard_ns_count 3\n"));
        // No ignored counter when nothing was rejected.
        assert!(!out.contains("shard_ns_ignored_total"));
        // Name-sorted and byte-deterministic.
        assert!(out.find("mc_samples_total").unwrap() < out.find("memcalc_cache_hit_rate").unwrap());
        assert_eq!(out, metrics_prom(&sample_metrics()));
    }

    #[test]
    fn metrics_prom_reports_ignored_observations() {
        let snap = MetricsSnapshot {
            entries: vec![(
                "h".into(),
                MetricValue::Histogram(HistogramSnapshot {
                    bounds: vec![1.0],
                    buckets: vec![1, 0],
                    sum: 0.5,
                    ignored: 2,
                }),
            )],
        };
        let out = metrics_prom(&snap);
        assert!(out.contains("# TYPE h_ignored_total counter\nh_ignored_total 2\n"));
    }

    #[test]
    fn prom_f64_spellings() {
        assert_eq!(prom_f64(f64::NAN), "NaN");
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(prom_f64(2.5), "2.5");
    }
}
