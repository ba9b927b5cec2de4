//! flowrelctl: command-line client for flowrel-server.
//!
//! ```text
//! flowrelctl --addr ADDR ping
//! flowrelctl --addr ADDR stats
//! flowrelctl --addr ADDR shutdown
//! flowrelctl --addr ADDR compute FILE [--strategy auto|naive|factoring|mc]
//!            [--seed N] [--samples N] [--timeout-ms MS] [--max-configs N]
//!            [--hybrid] [--checkpoint FILE]
//! flowrelctl --addr ADDR resume TOKEN
//! ```
//!
//! Exit codes mirror the `flowrel` CLI: `0` success, `2` usage, `3` I/O or
//! transport (a failed write to stdout included; a closed stdout is not a
//! failure), `20` a partial (interrupted) answer — the resume token is
//! printed so a later `flowrelctl resume` can continue — and any other code
//! is the server's structured error code (`4` parse, `6` overloaded,
//! `10`–`24` calculator errors, …).

use std::process::ExitCode;

use flowrel_server::proto::StatsSnapshot;
use flowrel_server::{BindAddr, Client, ComputeRequest, Response, StrategySpec};
use flowrel_shutdown::outln;
use flowrel_shutdown::stdout::exit_status;

struct CtlError {
    code: u8,
    message: String,
}

impl CtlError {
    fn usage(message: impl Into<String>) -> CtlError {
        CtlError {
            code: 2,
            message: message.into(),
        }
    }

    fn io(message: impl Into<String>) -> CtlError {
        CtlError {
            code: 3,
            message: message.into(),
        }
    }
}

fn usage() -> &'static str {
    "usage: flowrelctl --addr ADDR <ping|stats|shutdown|compute FILE [opts]|resume TOKEN>\n\
     compute opts: --strategy auto|naive|factoring|mc  --seed N  --samples N\n\
     \x20             --timeout-ms MS  --max-configs N  --hybrid  --checkpoint FILE"
}

fn connect(addr: &Option<BindAddr>) -> Result<Client, CtlError> {
    let addr = addr
        .as_ref()
        .ok_or_else(|| CtlError::usage(format!("--addr is required\n{}", usage())))?;
    Client::connect(addr).map_err(|e| CtlError::io(format!("connect: {e}")))
}

fn print_stats(s: &StatsSnapshot) {
    outln!("active_sessions  {}", s.active_sessions);
    outln!("active_requests  {}", s.active_requests);
    outln!("served           {}", s.served);
    outln!("shed             {}", s.shed);
    outln!("protocol_errors  {}", s.protocol_errors);
    outln!("panics           {}", s.panics);
    outln!("parked           {}", s.parked);
    outln!("cache_hits       {}", s.cache_hits);
    outln!("cache_misses     {}", s.cache_misses);
    outln!("result_hits      {}", s.result_hits);
    outln!("  raw            {}", s.result_hits_raw);
    outln!("  reduced        {}", s.result_hits_reduced);
    outln!("shutting_down    {}", s.shutting_down);
}

/// Prints a server response; the returned code is the process exit code.
fn report(resp: Response) -> u8 {
    match resp {
        Response::Pong => {
            outln!("pong");
            0
        }
        Response::ShuttingDown => {
            outln!("server is draining");
            0
        }
        Response::Stats(s) => {
            print_stats(&s);
            0
        }
        Response::Complete {
            reliability,
            algorithm,
            cached,
            certified,
        } => {
            outln!("reliability {reliability:.12}");
            outln!(
                "algorithm   {algorithm}{}",
                if cached { " (cached)" } else { "" }
            );
            outln!(
                "certainty   {}",
                if certified {
                    "certified"
                } else {
                    "statistical"
                }
            );
            0
        }
        Response::Partial {
            r_low,
            r_high,
            explored,
            algorithm,
            token,
            certified,
            ..
        } => {
            outln!("partial [{r_low:.12}, {r_high:.12}]");
            outln!("explored  {:.2}%", explored * 100.0);
            outln!("algorithm {algorithm}");
            outln!(
                "certainty {}",
                if certified {
                    "certified"
                } else {
                    "statistical"
                }
            );
            outln!("token     {token}");
            20
        }
        Response::Error(e) => {
            eprintln!("error: {e}");
            e.code
        }
    }
}

fn run(args: &[String]) -> Result<u8, CtlError> {
    let mut addr: Option<BindAddr> = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.peek() {
        if flag.as_str() != "--addr" {
            break;
        }
        it.next();
        let value = it
            .next()
            .ok_or_else(|| CtlError::usage("--addr needs a value"))?;
        addr = Some(BindAddr::parse(value).map_err(CtlError::usage)?);
    }
    let command = it
        .next()
        .ok_or_else(|| CtlError::usage(usage().to_string()))?;
    match command.as_str() {
        "ping" => {
            let mut client = connect(&addr)?;
            client
                .ping()
                .map_err(|e| CtlError::io(format!("ping: {e}")))?;
            outln!("pong");
            Ok(0)
        }
        "stats" => {
            let mut client = connect(&addr)?;
            let resp = client
                .stats()
                .map_err(|e| CtlError::io(format!("stats: {e}")))?;
            Ok(report(resp))
        }
        "shutdown" => {
            let mut client = connect(&addr)?;
            let resp = client
                .shutdown_server()
                .map_err(|e| CtlError::io(format!("shutdown: {e}")))?;
            Ok(report(resp))
        }
        "resume" => {
            let token = it
                .next()
                .ok_or_else(|| CtlError::usage("resume needs a TOKEN"))?;
            let mut client = connect(&addr)?;
            let resp = client
                .resume(token)
                .map_err(|e| CtlError::io(format!("resume: {e}")))?;
            Ok(report(resp))
        }
        "compute" => {
            let file = it
                .next()
                .ok_or_else(|| CtlError::usage("compute needs a FILE"))?;
            let net =
                std::fs::read_to_string(file).map_err(|e| CtlError::io(format!("{file}: {e}")))?;
            let mut strategy_name = "auto".to_string();
            let mut seed = 0u64;
            let mut samples = 1_000_000u64;
            let mut timeout_ms = None;
            let mut max_configs = None;
            let mut hybrid = false;
            let mut checkpoint = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<&String, CtlError> {
                    it.next()
                        .ok_or_else(|| CtlError::usage(format!("{name} needs a value")))
                };
                match flag.as_str() {
                    "--strategy" => strategy_name = value("--strategy")?.clone(),
                    "--seed" => {
                        seed = value("--seed")?
                            .parse()
                            .map_err(|_| CtlError::usage("--seed: not a number"))?
                    }
                    "--samples" => {
                        samples = value("--samples")?
                            .parse()
                            .map_err(|_| CtlError::usage("--samples: not a number"))?
                    }
                    "--timeout-ms" => {
                        timeout_ms = Some(
                            value("--timeout-ms")?
                                .parse()
                                .map_err(|_| CtlError::usage("--timeout-ms: not a number"))?,
                        )
                    }
                    "--max-configs" => {
                        max_configs = Some(
                            value("--max-configs")?
                                .parse()
                                .map_err(|_| CtlError::usage("--max-configs: not a number"))?,
                        )
                    }
                    "--hybrid" => hybrid = true,
                    "--checkpoint" => {
                        let path = value("--checkpoint")?;
                        checkpoint = Some(
                            std::fs::read_to_string(path)
                                .map_err(|e| CtlError::io(format!("{path}: {e}")))?,
                        )
                    }
                    other => return Err(CtlError::usage(format!("unknown flag '{other}'"))),
                }
            }
            let strategy = match strategy_name.as_str() {
                "auto" => StrategySpec::Auto,
                "naive" => StrategySpec::Naive,
                "factoring" => StrategySpec::Factoring,
                "mc" => StrategySpec::Mc { seed, samples },
                other => return Err(CtlError::usage(format!("unknown strategy '{other}'"))),
            };
            let mut client = connect(&addr)?;
            let resp = client
                .compute(ComputeRequest {
                    net,
                    strategy,
                    timeout_ms,
                    max_configs,
                    hybrid,
                    checkpoint,
                })
                .map_err(|e| CtlError::io(format!("compute: {e}")))?;
            Ok(report(resp))
        }
        "--help" | "-h" => {
            outln!("{}", usage());
            Ok(0)
        }
        other => Err(CtlError::usage(format!(
            "unknown command '{other}'\n{}",
            usage()
        ))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("flowrelctl: {}", e.message);
            e.code
        }
    };
    ExitCode::from(exit_status("flowrelctl", code))
}
