//! `CounterHandle` against the process-global registry.
//!
//! This binary holds a single test so the phases run in a fixed order:
//! the layer starts disabled in a fresh process, and the first phase
//! needs it to stay that way until the test itself enables it.

use ntc_obs::{counter, counter_add, enable, enabled, metrics_snapshot, CounterHandle};
use std::sync::Barrier;

static DISABLED: CounterHandle = CounterHandle::new("handle_test.disabled");
static SHARED: CounterHandle = CounterHandle::new("handle_test.shared");
static RACED: CounterHandle = CounterHandle::new("handle_test.raced");

#[test]
fn handle_registers_lazily_and_counts_exactly() {
    // While disabled, an add neither counts nor registers the name.
    assert!(!enabled(), "nothing in this binary enables the layer first");
    DISABLED.add(5);
    assert!(metrics_snapshot().get("handle_test.disabled").is_none());

    enable();
    DISABLED.add(2);
    assert_eq!(metrics_snapshot().counter("handle_test.disabled"), Some(2));

    // Handle adds and by-name adds land in one registered counter.
    SHARED.add(3);
    counter_add("handle_test.shared", 4);
    SHARED.add(1);
    assert_eq!(metrics_snapshot().counter("handle_test.shared"), Some(8));
    assert_eq!(counter("handle_test.shared").get(), 8);

    // Concurrent adds sum exactly, including the race to resolve the
    // handle on first use: every thread starts at the barrier.
    const THREADS: u64 = 4;
    const ADDS: u64 = 10_000;
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for _ in 0..ADDS {
                    RACED.add(1);
                }
                RACED.add(t);
            });
        }
    });
    let want = THREADS * ADDS + (0..THREADS).sum::<u64>();
    assert_eq!(metrics_snapshot().counter("handle_test.raced"), Some(want));
}
