//! Process-signal plumbing for graceful shutdown.
//!
//! A single atomic flag is flipped by SIGINT/SIGTERM. The daemon's
//! controller thread checks [`triggered`] on its 25 ms timer; once set,
//! the server stops accepting, drains in-flight requests, and flushes a
//! final metrics snapshot. In-process shutdown (tests, `--selftest`)
//! goes through `RunningServer::stop` instead.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once shutdown has been requested.
pub fn triggered() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod unix {
    use std::ffi::c_void;

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    extern "C" {
        // libc's simplified signal(2) binding; enough for a
        // set-a-flag handler without vendoring all of sigaction.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> *mut c_void;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Installs SIGINT/SIGTERM handlers that flip the shutdown flag.
/// No-op on non-unix targets.
pub fn install() {
    #[cfg(unix)]
    unix::install();
}
