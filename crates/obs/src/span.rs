//! Hierarchical spans with RAII guards and monotonic clocks.
//!
//! A [`Span`] measures one region of work. Guards nest through a
//! thread-local stack, so a span opened while another is active records
//! that span as its parent. Worker threads spawned by `exec::par_map`
//! have an empty stack of their own; callers hand the parent id across
//! the thread boundary explicitly with [`Span::with_parent`] (see
//! `ntc_stats::exec` for the pattern).
//!
//! Timestamps are nanoseconds since a process-wide epoch taken from a
//! monotonic [`Instant`], so `start_ns + dur_ns` of a child can never
//! precede its parent's `start_ns`. Wall-clock is never consulted.
//!
//! When the layer is disabled (the default) [`span`] returns an inert
//! guard: one relaxed atomic load, no allocation, no lock.
//!
//! Finished spans wait in a bounded ring of the newest [`SPAN_RING`]
//! records until [`take_spans`] drains them. A long-lived process that
//! never drains (a server with the layer on for its metrics) therefore
//! holds a fixed amount of span memory; each record the ring overwrites
//! is counted in `obs.spans_dropped`. A full paper-scale `repro run
//! --all --trace` records under 2,000 spans, so traces stay complete.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-unique id of a span. Ids are allocated monotonically but
/// carry no ordering meaning beyond uniqueness.
pub type SpanId = u64;

/// A finished span, as drained by [`crate::take_spans`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique id.
    pub id: SpanId,
    /// Enclosing span at creation time, if any.
    pub parent: Option<SpanId>,
    /// Dotted span name, e.g. `exec.par_map.worker`.
    pub name: Cow<'static, str>,
    /// Small per-process thread index (0 = first thread to record).
    pub thread: u64,
    /// Nanoseconds since the process epoch at which the span opened.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Monte-Carlo shard this span worked on, if shard-keyed.
    pub shard: Option<u32>,
    /// Serve-layer request id this span worked on, if request-keyed
    /// (`ntc-serve` assigns one per accepted connection and stamps it
    /// on the request's spans, the access log, and the `X-Request-Id`
    /// response header, so one id joins all three).
    pub req: Option<u64>,
    /// Work items processed inside the span (0 when not counted).
    pub items: u64,
}

impl SpanRecord {
    /// Items per second, if the span counted items and took any time.
    #[must_use]
    pub(crate) fn items_per_sec(&self) -> Option<f64> {
        if self.items == 0 || self.dur_ns == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(self.items as f64 / (self.dur_ns as f64 * 1e-9))
    }
}

/// Finished spans kept for [`take_spans`]; older records are
/// overwritten (and counted in `obs.spans_dropped`) once it is full.
pub const SPAN_RING: usize = 4096;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn finished() -> &'static Mutex<VecDeque<SpanRecord>> {
    static FINISHED: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    FINISHED.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Appends a finished span, overwriting the oldest when the ring is full.
fn record(span: SpanRecord) {
    let overwrote = match finished().lock() {
        Ok(mut f) => {
            let full = f.len() >= SPAN_RING;
            if full {
                f.pop_front();
            }
            f.push_back(span);
            full
        }
        Err(_) => false,
    };
    if overwrote {
        crate::counter_add("obs.spans_dropped", 1);
    }
}

thread_local! {
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
    static THREAD_INDEX: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|c| match c.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(Some(i));
            i
        }
    })
}

/// The innermost active span on this thread, for handing across a
/// thread boundary via [`Span::with_parent`].
#[must_use]
pub fn current_span() -> Option<SpanId> {
    if !crate::enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().copied())
}

struct Active {
    id: SpanId,
    parent: Option<SpanId>,
    name: Cow<'static, str>,
    start: Instant,
    start_ns: u64,
    shard: Option<u32>,
    req: Option<u64>,
    items: u64,
}

/// RAII guard returned by [`span`]. Dropping it records the span.
///
/// The guard must be dropped on the thread that opened it (it pops a
/// thread-local stack); spans are cheap, so open one per thread rather
/// than moving a guard.
pub struct Span(Option<Active>);

/// Opens a span. Inert (and allocation-free) while the layer is
/// disabled.
#[must_use]
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    let start = Instant::now();
    let start_ns = u64::try_from(start.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Span(Some(Active {
        id,
        parent,
        name: name.into(),
        start,
        start_ns,
        shard: None,
        req: None,
        items: 0,
    }))
}

impl Span {
    /// Keys the span to a Monte-Carlo shard.
    #[must_use]
    pub fn with_shard(mut self, shard: u32) -> Self {
        if let Some(a) = self.0.as_mut() {
            a.shard = Some(shard);
        }
        self
    }

    /// Keys the span to a serve-layer request id.
    #[must_use]
    pub fn with_request(mut self, req: u64) -> Self {
        if let Some(a) = self.0.as_mut() {
            a.req = Some(req);
        }
        self
    }

    /// Overrides the parent, for spans opened on a worker thread whose
    /// logical parent lives on the spawning thread.
    #[must_use]
    pub fn with_parent(mut self, parent: Option<SpanId>) -> Self {
        if let Some(a) = self.0.as_mut() {
            a.parent = parent;
        }
        self
    }

    /// Adds to the span's work-item count (drives items/sec in the
    /// text summary).
    pub fn add_items(&mut self, n: u64) {
        if let Some(a) = self.0.as_mut() {
            a.items += n;
        }
    }

    /// This span's id, for handing to [`Span::with_parent`] on another
    /// thread. `None` when the layer is disabled.
    #[must_use]
    pub fn id(&self) -> Option<SpanId> {
        self.0.as_ref().map(|a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let dur_ns = u64::try_from(a.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Normally a strict pop; be tolerant of out-of-order drops.
            if s.last() == Some(&a.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&id| id == a.id) {
                s.remove(pos);
            }
        });
        record(SpanRecord {
            id: a.id,
            parent: a.parent,
            name: a.name,
            thread: thread_index(),
            start_ns: a.start_ns,
            dur_ns,
            shard: a.shard,
            req: a.req,
            items: a.items,
        });
    }
}

/// Drains the finished spans still in the ring (the newest
/// [`SPAN_RING`]), sorted by `(start_ns, id)` so equal inputs render
/// identically.
#[must_use]
pub fn take_spans() -> Vec<SpanRecord> {
    let mut spans: Vec<SpanRecord> = match finished().lock() {
        Ok(mut f) => std::mem::take(&mut *f).into(),
        Err(_) => Vec::new(),
    };
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that drain the process-global ring.
    static RING: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_span_is_inert() {
        let _ring = RING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // The layer is off unless a test enables it; an inert guard has
        // no id and records nothing under its name.
        let s = span("span_test.disabled");
        assert!(s.id().is_none() || crate::enabled());
        drop(s);
    }

    #[test]
    fn nesting_records_parent() {
        let _ring = RING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::enable();
        let outer = span("span_test.outer");
        let outer_id = outer.id().unwrap();
        let inner = span("span_test.inner");
        assert_eq!(current_span(), inner.id());
        drop(inner);
        drop(outer);
        let spans = take_spans();
        let inner = spans
            .iter()
            .find(|s| s.name == "span_test.inner")
            .expect("inner recorded");
        assert_eq!(inner.parent, Some(outer_id));
        let outer = spans.iter().find(|s| s.name == "span_test.outer").unwrap();
        assert!(outer.parent.is_none() || outer.parent != Some(inner.id));
        // Child cannot start before its parent on the shared epoch.
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn ring_keeps_the_newest_spans_and_counts_overwrites() {
        let _ring = RING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::enable();
        let _ = take_spans();
        let dropped = || crate::metrics_snapshot().counter("obs.spans_dropped").unwrap_or(0);
        let before = dropped();
        let k = 37u64;
        for i in 0..SPAN_RING as u64 + k {
            let mut s = span("span_test.ring");
            s.add_items(i + 1);
        }
        let spans = take_spans();
        assert_eq!(spans.len(), SPAN_RING);
        assert_eq!(dropped() - before, k);
        // The newest SPAN_RING survive, in the usual (start_ns, id) order.
        let items: Vec<u64> = spans.iter().map(|s| s.items).collect();
        assert_eq!(items, (k + 1..=SPAN_RING as u64 + k).collect::<Vec<_>>());
        assert!(spans.windows(2).all(|w| (w[0].start_ns, w[0].id) < (w[1].start_ns, w[1].id)));
        assert!(take_spans().is_empty(), "draining empties the ring");
    }

    #[test]
    fn items_per_sec_requires_items_and_time() {
        let r = SpanRecord {
            id: 1,
            parent: None,
            name: "x".into(),
            thread: 0,
            start_ns: 0,
            dur_ns: 2_000_000_000,
            shard: None,
            req: None,
            items: 10,
        };
        let ips = r.items_per_sec().unwrap();
        assert!((ips - 5.0).abs() < 1e-9);
        assert!(SpanRecord { items: 0, ..r.clone() }.items_per_sec().is_none());
        assert!(SpanRecord { dur_ns: 0, ..r }.items_per_sec().is_none());
    }
}
