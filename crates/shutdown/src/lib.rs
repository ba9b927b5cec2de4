//! Shared two-stage shutdown signal handling for the `flowrel` binaries,
//! and their stdout writes.
//!
//! Both the one-shot CLI (`flowrel`) and the daemon (`flowrel-server`) want
//! the same contract: the **first** `SIGINT`/`SIGTERM` requests a graceful
//! stop (trip a [`CancelToken`] so in-flight sweeps stop at clean cursors
//! and write their checkpoints), and the **second** gives up on grace and
//! hard-exits with the conventional `128 + signo` status. Before this crate
//! each binary grew its own handler; factoring it here keeps the behavior
//! identical, makes installation idempotent (a process that links both code
//! paths installs one handler, not two conflicting ones), and adds `SIGTERM`
//! coverage — the signal init systems and CI actually send — next to the
//! interactive `SIGINT`.
//!
//! Signal handlers must be async-signal-safe, so the handler itself only
//! touches static atomics; a small watcher thread bridges the flag into the
//! allocating [`CancelToken`] world.
//!
//! Off Unix this degrades to a token that never trips.
//!
//! The crate also holds the binaries' one rule for writing stdout without
//! panicking ([`stdout`], [`outln!`], [`out!`]).

#![warn(missing_docs)]

use flowrel_core::CancelToken;

pub mod stdout;

/// Handle to the process-wide shutdown state installed by
/// [`ShutdownSignal::install`]. Cheap to clone; all clones observe the same
/// signals.
#[derive(Clone, Debug)]
pub struct ShutdownSignal {
    token: CancelToken,
}

impl ShutdownSignal {
    /// Installs the `SIGINT` + `SIGTERM` handlers (idempotently — repeated
    /// calls return handles onto the same process-wide state) and returns a
    /// handle whose token trips on the first signal. The second signal
    /// hard-exits the process with status `128 + signo` without returning.
    pub fn install() -> ShutdownSignal {
        ShutdownSignal {
            token: imp::install(),
        }
    }

    /// The cooperative cancellation token tripped by the first signal. Wire
    /// it into [`flowrel_core::Budget::cancel`] (or poll it) to stop work at
    /// a clean cursor.
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Whether a shutdown signal has been received.
    pub fn fired(&self) -> bool {
        imp::signo() != 0
    }

    /// The signal that fired first (`"SIGINT"` / `"SIGTERM"`), if any.
    pub fn signal_name(&self) -> Option<&'static str> {
        match imp::signo() {
            2 => Some("SIGINT"),
            15 => Some("SIGTERM"),
            _ => None,
        }
    }
}

#[cfg(unix)]
mod imp {
    use flowrel_core::CancelToken;
    use std::sync::atomic::{AtomicI32, AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// How many shutdown signals arrived (any kind, combined — a SIGTERM
    /// followed by a SIGINT still escalates to the hard exit).
    static COUNT: AtomicUsize = AtomicUsize::new(0);
    /// The first signal's number (0 = none yet).
    static SIGNO: AtomicI32 = AtomicI32::new(0);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_signal(signo: i32) {
        // async-signal-safe: atomics and _exit only
        let _ = SIGNO.compare_exchange(0, signo, Ordering::SeqCst, Ordering::SeqCst);
        if COUNT.fetch_add(1, Ordering::SeqCst) >= 1 {
            // the user/operator insists: abandon the graceful checkpoint
            unsafe { _exit(128 + signo) };
        }
    }

    /// The one token every install() call shares, created lazily. Tokens
    /// registered after the watcher thread exits (signal already seen) are
    /// tripped inline.
    static STATE: OnceLock<Mutex<CancelToken>> = OnceLock::new();

    pub(super) fn signo() -> i32 {
        SIGNO.load(Ordering::SeqCst)
    }

    pub(super) fn install() -> CancelToken {
        let state = STATE.get_or_init(|| {
            unsafe {
                let h = on_signal as extern "C" fn(i32) as *const () as usize;
                signal(SIGINT, h);
                signal(SIGTERM, h);
            }
            let token = CancelToken::new();
            let bridge = token.clone();
            // The watcher bridges the async-signal-safe flag into the
            // allocating CancelToken world (handlers must not touch Arc).
            std::thread::spawn(move || loop {
                if COUNT.load(Ordering::SeqCst) > 0 {
                    bridge.trip();
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            });
            Mutex::new(token)
        });
        let guard = state.lock().unwrap_or_else(|e| e.into_inner());
        let token = guard.clone();
        if COUNT.load(Ordering::SeqCst) > 0 {
            token.trip();
        }
        token
    }
}

#[cfg(not(unix))]
mod imp {
    use flowrel_core::CancelToken;

    pub(super) fn signo() -> i32 {
        0
    }

    /// No signal handling off Unix: the token simply never trips.
    pub(super) fn install() -> CancelToken {
        CancelToken::new()
    }
}
