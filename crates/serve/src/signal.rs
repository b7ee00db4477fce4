//! Shutdown flag flipped by `SIGINT`/`SIGTERM`.
//!
//! The crate is `#![deny(unsafe_code)]`; this module carries the one
//! exemption. There is no signal-handling facility in `std`, and the
//! workspace takes no external dependencies, so the handler is
//! registered straight against the C `signal()` that `std` already
//! links. The handler body only stores to an [`AtomicBool`] — one of
//! the few operations that is async-signal-safe. The acceptor sleeps in
//! a blocking `accept()` and never sees the flag;
//! [`RunningServer::join`](crate::RunningServer::join) polls it on the
//! caller's otherwise idle thread and then shuts the server down, which
//! wakes the acceptor with a loopback connection.

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Installs the handler for `SIGINT` and `SIGTERM`. Idempotent.
    pub fn install() {
        // SAFETY: `signal` is the C standard library's registration
        // call; the handler only performs an atomic store, which is
        // async-signal-safe. Replacing a previous disposition is fine —
        // the process owns its own handlers.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// Whether a shutdown signal has arrived since [`install`].
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod imp {
    /// No-op off Unix: shutdown then comes only from
    /// [`RunningServer::shutdown`](crate::RunningServer::shutdown).
    pub fn install() {}

    /// Always `false` off Unix.
    pub fn requested() -> bool {
        false
    }
}

pub use imp::{install, requested};
