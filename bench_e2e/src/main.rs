//! `bench_e2e`: the end-to-end benchmark of flowrel.
//!
//! ```text
//! bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out FILE] [--out FILE] [--smoke]
//! bench_e2e --write-refs
//! bench_e2e compare A1.json … -- B1.json … [--benchmark FILE]
//! ```
//!
//! It runs four workloads through the entry points users call:
//! `ReliabilityCalculator::run` for library solves and
//! `flowrel_server::{start, Client}` over loopback for served requests. A
//! run prints every metric by name and unit, checks every answer, and ends
//! its standard output with one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 1` the metrics are the per-layer
//! ones, measured by replaying each operation through the layers' public
//! functions (see `trace.rs`). Without `--workload` every workload runs, each
//! in a child process of its own so that its peak memory is its own.
//! See `README.md` beside this package for the workloads and metrics.

mod catalog;
mod clock;
mod compare;
mod library;
mod ops;
mod refs;
mod serve;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use flowrel_server::json::{obj, parse, Json, JsonLimits};

use catalog::Workload;
use refs::Refs;

/// Seconds one run measures unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 20.0;

/// Seconds the serving workload's load lasts under `--smoke`.
const SMOKE_SECONDS: f64 = 1.5;

/// Passes of the library workloads that `--write-refs` pins.
const REF_PASSES: u64 = 8;

/// The pinned references for seed 1, beside the package.
const REFS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs-seed1.txt");

/// A named measurement with its unit.
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run is asked to do.
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Per-layer trace instead of end-to-end metrics.
    pub trace: bool,
    /// About a twentieth of the work, every check kept.
    pub smoke: bool,
    /// Reference answers (empty unless the seed is 1).
    pub refs: Refs,
    /// Where to write the trace's spans.
    pub trace_out: Option<String>,
}

impl Settings {
    /// How many times set-up runs; its median is `setup_s`. Library set-up
    /// includes a warm-up solve, so it is repeated fewer times.
    pub fn setup_reps(&self) -> usize {
        match (self.smoke, self.workload) {
            (true, _) => 1,
            (false, Workload::OverlayServe) => 21,
            (false, _) => 7,
        }
    }
}

/// Check outcomes of a run.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Records one timed operation's check.
    pub fn op(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.problems.push(e);
        }
    }

    /// Records a check that spans operations.
    pub fn global(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.problems.push(e);
        }
    }

    /// The run's result.
    pub fn finish(self, metrics: Vec<Metric>) -> Run {
        Run {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
        }
    }
}

/// The result of one workload run.
pub struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Run {
    fn failed(problem: String) -> Run {
        Run {
            attempted: 0,
            failed: 0,
            problems: vec![problem],
            metrics: Vec::new(),
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn result_pairs(&self) -> Vec<(&'static str, Json)> {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]
    }
}

/// Peak resident memory of this process, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Parsed command line of a benchmark run.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    smoke: bool,
    write_refs: bool,
    /// The flags to hand a child run, `--workload` excepted.
    forward: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
        write_refs: false,
        forward: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{name}' (expected one of {})",
                        names.join(", ")
                    )
                })?);
                continue;
            }
            "--seed" => {
                let v = value("an integer")?;
                a.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
                a.forward.extend([flag.clone(), v]);
            }
            "--seconds" => {
                let v = value("a duration")?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{v}'"))?;
                a.forward.extend([flag.clone(), v]);
            }
            "--trace" => {
                let v = value("0 or 1")?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{v}' (expected 0 or 1)")),
                };
                a.forward.extend([flag.clone(), v]);
            }
            "--trace-out" => a.trace_out = Some(value("a file")?),
            "--out" => a.out = Some(value("a file")?),
            "--smoke" => {
                a.smoke = true;
                a.forward.push(flag.clone());
            }
            "--write-refs" => a.write_refs = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.smoke {
        a.seconds = a.seconds.min(SMOKE_SECONDS);
    }
    Ok(a)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("bench_e2e: {problem}");
    eprintln!(
        "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--trace-out FILE] [--out FILE] [--smoke]\n       \
         bench_e2e --write-refs\n       \
         bench_e2e compare A1.json … -- B1.json … [--benchmark FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if a.write_refs {
        return write_refs(REFS);
    }
    match a.workload {
        Some(w) => run_one(w, &a),
        None => run_all(&a),
    }
}

fn run_one(workload: Workload, a: &Args) -> ExitCode {
    let refs = if a.seed == 1 {
        match std::fs::read_to_string(REFS) {
            Ok(text) => Refs::parse(&text),
            Err(e) => Err(format!("{REFS}: {e}")),
        }
    } else {
        Ok(Refs::default())
    };
    let run = match refs {
        Ok(refs) => {
            let settings = Settings {
                workload,
                seed: a.seed,
                seconds: a.seconds,
                trace: a.trace,
                smoke: a.smoke,
                refs,
                trace_out: a.trace_out.clone(),
            };
            match workload {
                Workload::OverlayServe => serve::run(&settings).unwrap_or_else(Run::failed),
                _ => library::run(&settings),
            }
        }
        Err(e) => Run::failed(e),
    };
    for p in run.problems.iter().take(20) {
        eprintln!("CHECK FAILED: {p}");
    }
    println!(
        "{} seed {}{}: {} operations, {} failed",
        workload.name(),
        a.seed,
        if a.trace { " (traced)" } else { "" },
        run.attempted,
        run.failed
    );
    for m in &run.metrics {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &a.out {
        let mut pairs = vec![
            ("workload", Json::Str(workload.name().into())),
            ("seed", Json::Num(a.seed as f64)),
            ("seconds", Json::Num(a.seconds)),
            ("trace", Json::Bool(a.trace)),
        ];
        pairs.extend(run.result_pairs());
        if let Err(e) = std::fs::write(path, obj(pairs).render() + "\n") {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", obj(run.result_pairs()).render());
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return usage(&format!("locating the executable: {e}")),
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(&a.forward)
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        ok &= out.status.success();
        let last = text.lines().last().unwrap_or_default();
        if let Ok(Json::Obj(pairs)) = parse(last, &JsonLimits::default()) {
            rows.push((w, Json::Obj(pairs)));
        }
    }
    println!("\nsummary (seed {}):", a.seed);
    for (w, result) in &rows {
        let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        println!("  {:<14} correct={correct}", w.name());
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("    {name:<28} {value:>14.6} {unit}");
            }
        }
    }
    if ok && rows.len() == Workload::ALL.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Computes the seed-1 answers of every operation a run can reach (the
/// first [`REF_PASSES`] passes of the library workloads, every query of the
/// serving workload) and writes them to `path`.
fn write_refs(path: &str) -> ExitCode {
    let seed = 1;
    let mut refs = Refs::default();
    for w in Workload::ALL {
        let entries = catalog::entries(w, false);
        let (passes, opts) = match w {
            Workload::OverlayServe => (1, ops::server_options()),
            _ => (REF_PASSES, ops::library_options()),
        };
        for pass in 0..passes {
            for (i, e) in entries.iter().enumerate() {
                let (text, key) = match w {
                    Workload::OverlayServe => (e.reweighted(seed), e.name.clone()),
                    Workload::McMesh => (e.text(), format!("p{pass}/{}", e.name)),
                    _ => (
                        e.reweighted(catalog::derive(seed, pass)),
                        format!("p{pass}/{}", e.name),
                    ),
                };
                match ops::solve(&text, &ops::strategy(w, seed, pass, i), &opts) {
                    Ok(answer) => refs.insert(w.name(), &key, answer),
                    Err(e) => {
                        eprintln!("{} {key}: {e}", w.name());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        eprintln!("{}: {} references", w.name(), refs.count(w.name()));
    }
    let header = "# bench_e2e answer references for --seed 1, regenerated with \
                  `bench_e2e --write-refs`.\n# <workload> <key> <C certified | S \
                  statistical | P partial> <value> <lo> <hi>, f64 as hex bits\n";
    match std::fs::write(path, refs.render(header)) {
        Ok(()) => {
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let run = Run {
            attempted: 120,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![
                Metric::new("op_ms_p50", 12.345678901234567, "ms"),
                Metric::new("setup_s", 0.000_812_7, "s"),
            ],
        };
        let line = obj(run.result_pairs()).render();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":120,\"failed\":0,\"metrics\":{\
             \"op_ms_p50\":{\"value\":12.345678901234567,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.0008127,\"unit\":\"s\"}}}"
        );
        // the writer keeps every digit: the value parses back bit for bit
        let back = parse(&line, &JsonLimits::default()).expect("valid JSON");
        let v = back
            .get("metrics")
            .and_then(|m| m.get("op_ms_p50"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(v.map(f64::to_bits), Some(12.345678901234567f64.to_bits()));
    }

    #[test]
    fn a_run_without_operations_is_not_correct() {
        assert!(!Run::failed("x".into()).correct());
        let mut checks = Checks::default();
        checks.op(Ok(()));
        checks.op(Err("wrong".into()));
        let run = checks.finish(Vec::new());
        assert_eq!((run.attempted, run.failed), (2, 1));
        assert!(!run.correct());
    }

    #[test]
    fn arguments_parse_as_documented() {
        let args: Vec<String> = [
            "--workload",
            "mc-mesh",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&args).expect("valid");
        assert_eq!(a.workload, Some(Workload::McMesh));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(
            a.forward,
            ["--seed", "7", "--seconds", "10", "--trace", "1"]
        );
        assert!(parse_args(&["--trace".into(), "yes".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
