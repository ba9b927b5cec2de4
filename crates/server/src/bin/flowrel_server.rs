//! The flowrel-server daemon.
//!
//! ```text
//! flowrel-server [--addr unix:/path | host:port] [--state-dir DIR]
//!                [--max-concurrent N] [--max-waiting N]
//!                [--default-timeout-ms MS] [--max-timeout-ms MS]
//!                [--idle-timeout-ms MS]
//! ```
//!
//! Prints `flowrel-server listening on <addr>` once ready (the CI smoke test
//! and the lifecycle suite key on that line). A closed stdout is not an
//! error; if the line cannot be written for another reason, the server
//! stops and exits `3`. SIGINT/SIGTERM start a
//! graceful drain: in-flight requests are interrupted at the next budget
//! poll, parked under resume tokens in `--state-dir`, and the process exits
//! once every session has closed. A second signal aborts immediately.

use std::process::ExitCode;
use std::time::Duration;

use flowrel_server::{start, BindAddr, ServerConfig};
use flowrel_shutdown::outln;
use flowrel_shutdown::stdout::{stdout_error, EXIT_IO};

fn usage() -> &'static str {
    "usage: flowrel-server [--addr unix:/path | host:port] [--state-dir DIR]\n\
     \x20                     [--max-concurrent N] [--max-waiting N]\n\
     \x20                     [--default-timeout-ms MS] [--max-timeout-ms MS]\n\
     \x20                     [--idle-timeout-ms MS]"
}

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: BindAddr::Tcp("127.0.0.1:4500".into()),
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = BindAddr::parse(value("--addr")?)?,
            "--state-dir" => config.state_dir = Some(value("--state-dir")?.into()),
            "--max-concurrent" => {
                config.max_concurrent = value("--max-concurrent")?
                    .parse()
                    .map_err(|_| "--max-concurrent: not a number".to_string())?
            }
            "--max-waiting" => {
                config.max_waiting = value("--max-waiting")?
                    .parse()
                    .map_err(|_| "--max-waiting: not a number".to_string())?
            }
            "--default-timeout-ms" => {
                config.default_timeout = Duration::from_millis(
                    value("--default-timeout-ms")?
                        .parse()
                        .map_err(|_| "--default-timeout-ms: not a number".to_string())?,
                )
            }
            "--max-timeout-ms" => {
                config.max_timeout = Duration::from_millis(
                    value("--max-timeout-ms")?
                        .parse()
                        .map_err(|_| "--max-timeout-ms: not a number".to_string())?,
                )
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(
                    value("--idle-timeout-ms")?
                        .parse()
                        .map_err(|_| "--idle-timeout-ms: not a number".to_string())?,
                )
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("flowrel-server: bind failed: {e}");
            return ExitCode::from(3);
        }
    };
    outln!("flowrel-server listening on {}", handle.addr());
    // nothing waiting on the ready line would ever see it: stop serving
    if let Some(e) = stdout_error() {
        eprintln!("flowrel-server: writing stdout: {e}");
        handle.shutdown_token().trip();
        handle.join();
        return ExitCode::from(EXIT_IO);
    }

    // Bridge SIGINT/SIGTERM into the drain token. The bridge thread may
    // outlive `join` harmlessly; a second signal hard-exits via the shared
    // shutdown module.
    let signal = flowrel_shutdown::ShutdownSignal::install();
    let sig_token = signal.token();
    let drain = handle.shutdown_token();
    std::thread::spawn(move || loop {
        if sig_token.is_tripped() {
            drain.trip();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    handle.join();
    if let Some(name) = signal.signal_name() {
        eprintln!("flowrel-server: drained after {name}");
    }
    ExitCode::SUCCESS
}
