//! Minimal SIGINT handling for the `rfsp` binary.
//!
//! The crash-safe experiment runner polls a stop flag at every tick
//! boundary; [`install`] points SIGINT at this module's flag, so an
//! interrupt pauses the run cleanly — flush telemetry, write a final
//! checkpoint — instead of killing it mid-tick. Only the binary's entry
//! point calls [`install`] (handing it down through
//! [`dispatch`](crate::dispatch)); library callers and tests pass flags of
//! their own. On non-Unix targets installation is a no-op and the flag
//! simply never trips.

use std::sync::atomic::AtomicBool;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        // A store to a static atomic is async-signal-safe.
        super::INTERRUPTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Install the SIGINT handler (idempotent) and return the flag it sets.
pub fn install() -> &'static AtomicBool {
    imp::install();
    &INTERRUPTED
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    /// A real SIGINT (not a direct store) must trip the flag: certifies
    /// the handler is installed and async-signal-safe in practice.
    #[cfg(unix)]
    #[test]
    fn delivered_sigint_trips_the_flag() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        // Install FIRST: raising SIGINT under the default disposition
        // would kill the test process.
        let flag = install();
        let rc = unsafe { raise(2) };
        assert_eq!(rc, 0, "raise(SIGINT) failed");
        // Signal delivery to the raising thread is synchronous on Linux,
        // but spin briefly to stay portable.
        for _ in 0..1000 {
            if flag.load(Ordering::SeqCst) {
                break;
            }
            std::thread::yield_now();
        }
        assert!(flag.load(Ordering::SeqCst), "SIGINT handler did not set the flag");
    }
}
