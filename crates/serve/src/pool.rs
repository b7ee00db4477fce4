//! Bounded work queue for the fixed worker-shard pool.
//!
//! The service follows the `ntc_stats::exec` layout conventions: a
//! fixed number of worker shards decided once at startup (defaulting
//! to the engine's resolved thread count), each worker identified by
//! its shard index in spans. The queue between the acceptor and the
//! shards is **bounded**: when it is full the rejector answers `503`
//! immediately instead of letting latency grow without bound —
//! backpressure is part of the API contract, not an accident.
//!
//! The queue is a `Mutex<VecDeque>` + `Condvar`. At the request rates
//! a model-evaluation service sees, lock hold times are tens of
//! nanoseconds against handler times of microseconds to seconds; a
//! lock-free ring would buy nothing but complexity.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A close-able bounded MPMC queue.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Outcome of a non-blocking push.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Push<T> {
    /// Enqueued; carries the queue depth right after the push.
    Accepted(usize),
    /// Queue full (or closed) — the item comes back to the caller.
    Rejected(T),
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity queue would
    /// reject every request.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::with_capacity(capacity), closed: false }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Current queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Non-blocking push: rejects instead of waiting when full, so the
    /// acceptor can turn overflow into an immediate `503`.
    pub(crate) fn try_push(&self, item: T) -> Push<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed || inner.items.len() >= self.capacity {
            return Push::Rejected(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.ready.notify_one();
        Push::Accepted(depth)
    }

    /// Blocking pop. Returns `None` only when the queue is closed
    /// *and* drained — pending work is always completed before workers
    /// see the close, which is what makes shutdown graceful.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue: rejects new pushes, wakes every waiting
    /// worker; already-queued items still drain through [`pop`].
    ///
    /// [`pop`]: BoundedQueue::pop
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_drains_in_order() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Push::Accepted(1));
        assert_eq!(q.try_push(2), Push::Accepted(2));
        assert_eq!(q.try_push(3), Push::Rejected(3));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Push::Accepted(2));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn close_drains_pending_then_returns_none() {
        let q = BoundedQueue::new(4);
        let _ = q.try_push(1);
        let _ = q.try_push(2);
        q.close();
        assert_eq!(q.try_push(3), Push::Rejected(3), "closed queue rejects");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the worker a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().expect("worker exits"), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_refused() {
        let _ = BoundedQueue::<u32>::new(0);
    }
}
