//! Writes to standard output that never panic.
//!
//! `println!` panics when stdout is closed (`flowrelctl ... | head`) or
//! fails (`> /dev/full`). The binaries print through [`outln!`](crate::outln)
//! and [`out!`](crate::out) instead, under one rule:
//!
//! - a closed pipe (`BrokenPipe`) drops the rest of the output quietly, and
//!   the process keeps the exit status its run would have had;
//! - any other write error (a full disk, say) drops the rest of the output
//!   too, and [`exit_status`] turns a successful run into [`EXIT_IO`].

use std::io::{self, Write as _};
use std::sync::OnceLock;

/// Exit status of a run whose output could not be written.
pub const EXIT_IO: u8 = 3;

/// The first error writing stdout, other than a closed pipe.
static STDOUT_ERROR: OnceLock<io::Error> = OnceLock::new();

/// Writes to stdout under the module's rule; [`outln!`](crate::outln) and
/// [`out!`](crate::out) call it.
pub fn emit(args: std::fmt::Arguments<'_>) {
    if STDOUT_ERROR.get().is_none() {
        if let Err(e) = io::stdout().write_fmt(args) {
            note(e);
        }
    }
}

fn note(e: io::Error) {
    if e.kind() != io::ErrorKind::BrokenPipe {
        let _ = STDOUT_ERROR.set(e);
    }
}

/// Flushes stdout, then returns the first error writing it other than a
/// closed pipe.
pub fn stdout_error() -> Option<&'static io::Error> {
    if let Err(e) = io::stdout().flush() {
        note(e);
    }
    STDOUT_ERROR.get()
}

/// The exit status of a run that ended with `status`, once stdout is
/// flushed. A stdout error other than a closed pipe is reported on stderr
/// as `{prefix}: writing stdout: …` and fails an otherwise successful run
/// with [`EXIT_IO`]; a failed run keeps its own status.
pub fn exit_status(prefix: &str, status: u8) -> u8 {
    match stdout_error() {
        Some(e) => {
            eprintln!("{prefix}: writing stdout: {e}");
            if status == 0 {
                EXIT_IO
            } else {
                status
            }
        }
        None => status,
    }
}

/// `println!` that never panics; see [`emit`](crate::stdout::emit).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::stdout::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` that never panics; see [`emit`](crate::stdout::emit).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout::emit(format_args!($($arg)*))
    };
}
