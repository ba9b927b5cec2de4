//! The server binaries write stdout under the rule the `flowrel` CLI keeps:
//! a closed pipe drops the output and keeps the exit status, any other
//! write error exits `3`, and nothing panics.

use std::process::{Command, Output, Stdio};

/// The write end of a pipe whose read end is already closed, so every
/// write to it fails with `BrokenPipe`, whenever the child makes it.
#[cfg(unix)]
fn closed_pipe() -> Stdio {
    use std::os::fd::{FromRawFd, OwnedFd};
    extern "C" {
        fn pipe(fds: *mut i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    let mut fds = [0i32; 2];
    // SAFETY: `pipe` fills both descriptors on success; the read end is
    // closed once and the write end is owned by exactly one `OwnedFd`.
    unsafe {
        assert_eq!(pipe(fds.as_mut_ptr()), 0, "pipe(2) fails");
        close(fds[0]);
        Stdio::from(OwnedFd::from_raw_fd(fds[1]))
    }
}

#[cfg(target_os = "linux")]
fn dev_full() -> Stdio {
    std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens")
        .into()
}

fn flowrelctl(args: &[&str], stdout: Stdio) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flowrelctl"))
        .args(args)
        .stdout(stdout)
        .output()
        .expect("the flowrelctl binary runs");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, err)
}

#[cfg(unix)]
#[test]
fn help_into_a_closed_pipe_exits_zero() {
    let (out, err) = flowrelctl(&["--help"], closed_pipe());
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[cfg(target_os = "linux")]
#[test]
fn help_into_a_full_device_exits_three() {
    let (out, err) = flowrelctl(&["--help"], dev_full());
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(err.contains("writing stdout"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// A daemon whose ready line cannot be written stops serving and exits `3`
/// instead of running with nobody able to see that it is up.
#[cfg(target_os = "linux")]
#[test]
fn a_server_that_cannot_write_its_ready_line_exits_three() {
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_flowrel-server"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(dev_full())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the flowrel-server binary runs");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("waits").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("flowrel-server kept running with a failing stdout");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("the server exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(err.contains("writing stdout"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
