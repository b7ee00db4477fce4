//! `ntc-obs` — zero-dependency tracing, metrics, and run provenance.
//!
//! The workspace's instrumentation layer: hierarchical [spans](mod@span)
//! with RAII guards and monotonic clocks, typed [metrics] on lock-free
//! `AtomicU64` cells, pluggable [sinks](export) (Chrome
//! `trace_event`, JSON-lines, plain text, Prometheus exposition), a
//! canonical log-scale [latency] bucket layout with quantile
//! estimation, and a [`Provenance`] block for artifact sidecars.
//!
//! # Cost model
//!
//! Everything is off by default. Until [`enable`] is called,
//! [`span`](fn@span) and the `*_add`/`*_set`/`*_record` helpers
//! early-out after one relaxed atomic load — no allocation, no locks, no
//! clock reads — so instrumented hot paths cost near-nothing in ordinary
//! runs, and the simulation results they produce are *never* affected
//! either way.
//! While enabled, each by-name helper call locks the registry to find
//! its instrument; call sites hot enough to notice hold a `static`
//! [`CounterHandle`], which finds it once.
//!
//! # Determinism contract
//!
//! Simulation outputs (artifacts) do not read anything from this crate;
//! enabling instrumentation cannot change them. Telemetry itself splits
//! in two:
//!
//! * **Deterministic shape** — metric *names*, snapshot ordering
//!   (always sorted by name), and the [`MetricsSnapshot::merge`]
//!   result for given operands (counters add, gauges max, histograms
//!   bucket-add: associative + commutative).
//! * **Run-specific values** — span timestamps/durations and any
//!   counter whose increment count depends on scheduling (e.g. energy
//!   cache misses racing on a cold key). These live only in trace /
//!   metrics / provenance sidecars, never in artifacts.
//!
//! # Naming scheme
//!
//! Dotted lowercase paths, `<crate-or-subsystem>.<unit>.<detail>`:
//! `exec.par_map.worker`, `memcalc.cache.hit`, `ocean.optimizer.iterations`,
//! `sim.profile.cycles`, `repro.fig8`. Spans that work on one of the 64
//! Monte-Carlo shards carry the shard index as a typed field rather
//! than encoding it in the name.
//!
//! The checkpoint/store layer (DESIGN.md §16) publishes two families:
//! `ckpt.*` for the shard checkpoint protocol (`ckpt.shards.restored` /
//! `.computed` / `.skipped`, `ckpt.corrupt`, plus `ckpt.save` /
//! `ckpt.restore` spans) and `store.*` for the content-addressed
//! directory (`store.hit` / `.miss` / `.put` / `.corrupt` for artifacts,
//! `store.ckpt.hit` / `.miss` / `.put` for checkpoints). `ntc-serve`'s
//! bounded run-memo counts evictions in `serve.cache.evictions`.
//!
//! The fleet-telemetry layer (DESIGN.md §18) adds `progress.*` — live
//! sweep gauges published by the [`progress`] tracker
//! (`progress.shards_done` / `.shards_total`, `progress.trials_done` /
//! `.trials_total`, `progress.samples_per_sec`, `progress.eta_secs`) —
//! and the `worker.*` family materialized by the status aggregator
//! from store-backed worker journals rather than from this registry.

pub mod export;
pub mod latency;
pub mod metrics;
pub mod progress;
pub mod provenance;
pub mod span;

pub use export::{
    chrome_trace, json_lines, metrics_json, metrics_prom, prom_escape, prom_name, text_summary,
};
pub use latency::{latency_bounds_ms, log_bounds, LATENCY_MAX_MS, LATENCY_MIN_MS, LATENCY_PER_DECADE};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsSnapshot};
pub use progress::ProgressSnapshot;
pub use provenance::{version, Provenance};
pub use span::{current_span, span, take_spans, Span, SpanId, SpanRecord, SPAN_RING};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the layer is collecting. One relaxed load; instrumented
/// call sites check this first.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on (idempotent). Typically called once by the CLI
/// when a sink flag (`--trace`/`--metrics`) is present.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns collection off. Already-registered metrics are kept for the
/// life of the process; recorded spans until [`take_spans`] drains them.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// A registered metric instrument.
#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Instrument>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Instrument>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The instrument registered under `name`, registering `make()` first if
/// there is none. The name is copied only on that first registration.
fn registered(name: &str, make: impl FnOnce() -> Instrument) -> Instrument {
    let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(inst) = reg.get(name) {
        return inst.clone();
    }
    let inst = make();
    reg.insert(name.to_string(), inst.clone());
    inst
}

/// Gets or creates the counter registered under `name`.
///
/// If `name` is already registered as a different kind, a detached
/// counter (absent from snapshots) is returned rather than panicking.
#[must_use]
pub fn counter(name: &str) -> Arc<Counter> {
    match registered(name, || Instrument::Counter(Arc::new(Counter::new()))) {
        Instrument::Counter(c) => c,
        _ => Arc::new(Counter::new()),
    }
}

/// Gets or creates the gauge registered under `name` (see [`counter`]
/// for the kind-mismatch rule).
#[must_use]
pub fn gauge(name: &str) -> Arc<Gauge> {
    match registered(name, || Instrument::Gauge(Arc::new(Gauge::new()))) {
        Instrument::Gauge(g) => g,
        _ => Arc::new(Gauge::new()),
    }
}

/// Gets or creates the histogram registered under `name`. The bounds
/// of the first registration win; a kind mismatch returns a detached
/// instrument (see [`counter`]).
#[must_use]
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    match registered(name, || Instrument::Histogram(Arc::new(Histogram::new(bounds)))) {
        Instrument::Histogram(h) => h,
        _ => Arc::new(Histogram::new(bounds)),
    }
}

/// Adds `n` to the counter `name`; no-op while disabled.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        counter(name).add(n);
    }
}

/// A counter named at compile time, for call sites too hot for
/// [`counter_add`]'s by-name lookup (which takes the registry mutex and
/// walks the name map on every call).
///
/// Declare it as a `static`; the first [`add`](Self::add) while enabled
/// resolves the registry entry once, and every later one is a single
/// atomic add. Registry entries are never removed, so a resolved handle
/// always counts into the instrument snapshots read.
pub struct CounterHandle {
    name: &'static str,
    resolved: OnceLock<Arc<Counter>>,
}

impl CounterHandle {
    /// A handle for the counter `name`, unresolved until first used.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self { name, resolved: OnceLock::new() }
    }

    /// Adds `n` to the counter; no-op while disabled (nothing is
    /// registered until the first add while enabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.resolved.get_or_init(|| counter(self.name)).add(n);
        }
    }
}

/// Sets the gauge `name` to `v`; no-op while disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        gauge(name).set(v);
    }
}

/// Records `v` into the histogram `name` (registering it with `bounds`
/// on first use); no-op while disabled.
#[inline]
pub fn histogram_record(name: &str, bounds: &[f64], v: f64) {
    if enabled() {
        histogram(name, bounds).record(v);
    }
}

/// A name-sorted snapshot of every registered metric.
#[must_use]
pub fn metrics_snapshot() -> MetricsSnapshot {
    let reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    MetricsSnapshot {
        entries: reg
            .iter()
            .map(|(name, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_noops_while_disabled() {
        // Unique names: the registry is process-global and tests run
        // in parallel.
        if enabled() {
            // Another test enabled the layer first; the no-op claim is
            // covered whenever this test wins the race, which it does
            // in a fresh process run of this suite alone.
            return;
        }
        counter_add("lib_test.disabled.counter", 5);
        gauge_set("lib_test.disabled.gauge", 1.0);
        histogram_record("lib_test.disabled.histo", &[1.0], 0.5);
        let snap = metrics_snapshot();
        assert!(snap.get("lib_test.disabled.counter").is_none());
        assert!(snap.get("lib_test.disabled.gauge").is_none());
        assert!(snap.get("lib_test.disabled.histo").is_none());
    }

    #[test]
    fn registry_is_typed_and_snapshottable() {
        enable();
        counter_add("lib_test.c", 2);
        counter_add("lib_test.c", 3);
        gauge_set("lib_test.g", 0.25);
        histogram_record("lib_test.h", &[1.0, 2.0], 1.5);
        let snap = metrics_snapshot();
        assert_eq!(snap.counter("lib_test.c"), Some(5));
        assert_eq!(snap.get("lib_test.g"), Some(&MetricValue::Gauge(0.25)));
        match snap.get("lib_test.h") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.bounds, vec![1.0, 2.0]);
                assert_eq!(h.count(), 1);
                assert_eq!(h.buckets[1], 1);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // Kind mismatch returns a detached instrument, not a panic.
        let detached = gauge("lib_test.c");
        detached.set(9.0);
        assert_eq!(metrics_snapshot().counter("lib_test.c"), Some(5));
    }

    #[test]
    fn lookups_return_the_registered_instrument() {
        let c = counter("lib_test.same.c");
        assert!(Arc::ptr_eq(&c, &counter("lib_test.same.c")));
        let g = gauge("lib_test.same.g");
        assert!(Arc::ptr_eq(&g, &gauge("lib_test.same.g")));
        let h = histogram("lib_test.same.h", &[1.0]);
        assert!(Arc::ptr_eq(&h, &histogram("lib_test.same.h", &[2.0])));
        // A kind mismatch still detaches: a fresh instrument each call,
        // absent from snapshots.
        let detached = counter("lib_test.same.g");
        assert!(!Arc::ptr_eq(&detached, &counter("lib_test.same.g")));
        detached.add(4);
        assert_eq!(metrics_snapshot().get("lib_test.same.g"), Some(&MetricValue::Gauge(0.0)));
    }

    #[test]
    fn snapshot_is_name_sorted() {
        enable();
        counter_add("lib_test.sort.b", 1);
        counter_add("lib_test.sort.a", 1);
        let snap = metrics_snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
