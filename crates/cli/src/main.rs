//! `flowrel` — command-line reliability calculator.
//!
//! ```text
//! flowrel compute <file.fnet> [--strategy auto|naive|factoring|mc] [--exact]
//!                             [--timeout SECS] [--max-configs N]
//!                             [--max-depth N] [--explain] [--hybrid]
//!                             [--checkpoint PATH] [--resume PATH]
//!                             [--mc-estimator auto|crude|dagger|perm]
//!                             [--rel-err EPS] [--ci HALF] [--samples N] [--seed S]
//! flowrel analyze <file.fnet> [--max-k K]
//! flowrel generate <barbell|chain|grid|mesh|slack-barbell|degraded-barbell> [args...]
//! flowrel dot <file.fnet>
//! ```
//!
//! Every subcommand accepts exactly the flags listed for it; an unknown flag
//! or a stray argument is a usage error (exit `2`) naming the argument. A
//! fixed-sample crude estimate is
//! `compute --strategy mc --mc-estimator crude --samples N --seed S`.
//!
//! `--explain` prints the recursive decomposition plan (node kinds, per-node
//! link counts, predicted sweep cost) before the computation runs, and — when
//! the planner executed — a per-subtree accounting table afterwards showing
//! each leaf slot's apportioned budget share and its predicted vs. actual
//! sweep cost; `--max-depth` caps how many nested splits the planner may
//! stack (`0` forces the flat one-level decomposition).
//!
//! `--hybrid` (off by default) lets the plan interpreter place a Monte-Carlo
//! estimator at any scalar leaf whose predicted sweep cost exceeds the
//! configuration share its subtree was apportioned (`--max-configs` sets the
//! allowance). The answer is then *labelled*: `certified` when every leaf ran
//! exactly, `statistical` with a 95% interval as soon as any leaf sampled.
//! The sampling flags (`--seed`, `--samples`, `--rel-err`, `--ci`,
//! `--mc-estimator`) configure the leaf estimators; with `--explain`, the
//! accounting table marks sampled leaves `mc` and says why they sampled.
//!
//! ## Exit codes
//!
//! Every failure mode has its own status so scripts can branch without
//! parsing stderr: `2` usage, `3` file I/O (and a failed write to stdout;
//! a closed stdout is not a failure), `4` file parse, `10`–`24` one
//! per [`flowrel_core::ReliabilityError`] variant (see [`CliError::from`]),
//! and `20` for an *incomplete* run — the budget ran out and a partial
//! result with rigorous bounds plus a checkpoint was produced. Monte-Carlo
//! runs use the same scheme: an interrupted estimation writes its checkpoint
//! and exits `20`; invalid sampling parameters exit `24`.

use std::process::ExitCode;
use std::time::Duration;

use flowrel_core::fnet as format;
use flowrel_core::{
    birnbaum_importance, enumerate_minimal_cuts, esary_proschan_bounds, find_bottleneck_set,
    reliability_naive_exact, Budget, CalcOptions, CancelToken, Checkpoint, DecompositionPlan,
    FlowDemand, Outcome, ReliabilityCalculator, ReliabilityError, Strategy,
};
use flowrel_shutdown::stdout::exit_status;
use flowrel_shutdown::{out, outln};
use netgraph::find_bridges;

/// Exit status for a budget-limited run that produced bounds + checkpoint
/// instead of an exact value.
const EXIT_INCOMPLETE: u8 = 20;

/// An error annotated with the process exit status it maps to.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    fn io(message: impl Into<String>) -> Self {
        CliError {
            code: 3,
            message: message.into(),
        }
    }

    fn parse(message: impl Into<String>) -> Self {
        CliError {
            code: 4,
            message: message.into(),
        }
    }
}

impl From<ReliabilityError> for CliError {
    fn from(e: ReliabilityError) -> Self {
        CliError {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         flowrel compute <file.fnet> [--strategy auto|naive|factoring|mc] [--exact] [--parallel] [--no-certs]\n  \
         {:17}[--no-incremental] [--no-reduce] [--parallel-threshold N] [--timeout SECS] [--max-configs N]\n  \
         {:17}[--max-depth N] [--explain] [--hybrid] [--checkpoint PATH] [--resume PATH]\n  \
         {:17}[--mc-estimator auto|crude|dagger|perm] [--rel-err EPS] [--ci HALF] [--samples N] [--seed S]\n  \
         flowrel analyze <file.fnet> [--max-k K]\n  \
         flowrel importance <file.fnet>\n  \
         flowrel generate barbell <cluster_nodes> <extra_edges> <k> <demand> <seed>\n  \
         flowrel generate chain <segments> <demand> <seed>\n  \
         flowrel generate grid <w> <h> <seed>\n  \
         flowrel generate mesh <peers> <neighbors> <rate> <seed>\n  \
         flowrel generate slack-barbell <segments> <spurs> <seed>\n  \
         flowrel generate degraded-barbell <cluster_nodes> <extra_edges> <k> <demand> <seed>\n  \
         flowrel dot <file.fnet>",
        "",
        "",
        ""
    );
    ExitCode::from(2)
}

/// The flags a subcommand accepts, each with whether it takes a value.
type Flags = &'static [(&'static str, bool)];

const COMPUTE_FLAGS: Flags = &[
    ("--strategy", true),
    ("--exact", false),
    ("--parallel", false),
    ("--no-certs", false),
    ("--no-incremental", false),
    ("--no-reduce", false),
    ("--parallel-threshold", true),
    ("--timeout", true),
    ("--max-configs", true),
    ("--max-depth", true),
    ("--explain", false),
    ("--hybrid", false),
    ("--checkpoint", true),
    ("--resume", true),
    ("--mc-estimator", true),
    ("--rel-err", true),
    ("--ci", true),
    ("--samples", true),
    ("--seed", true),
];

const ANALYZE_FLAGS: Flags = &[("--max-k", true)];

/// Rejects every argument that is not one of `flags` (or the value of one
/// that takes a value), and a value flag with nothing after it.
fn check_flags(args: &[String], flags: Flags) -> Result<(), CliError> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match flags.iter().find(|(name, _)| name == arg) {
            Some((_, true)) => {
                if rest.next().is_none() {
                    return Err(CliError::usage(format!("{arg} needs a value")));
                }
            }
            Some((_, false)) => {}
            None => return Err(CliError::usage(format!("unexpected argument '{arg}'"))),
        }
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn load(path: &str) -> Result<format::NetFile, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
    format::parse(&text).map_err(|e| CliError::parse(format!("{path}: {e}")))
}

fn demand_of(file: &format::NetFile) -> Result<FlowDemand, CliError> {
    file.demand
        .ok_or_else(|| CliError::parse("the file has no 'demand' line"))
}

/// Builds [`montecarlo::McSettings`] from the `--strategy mc` flags.
fn mc_settings(args: &[String]) -> Result<montecarlo::McSettings, CliError> {
    let estimator = match flag_value(args, "--mc-estimator").as_deref() {
        None => montecarlo::EstimatorKind::Auto,
        Some(name) => montecarlo::EstimatorKind::from_name(name)
            .ok_or_else(|| CliError::usage(format!("unknown --mc-estimator '{name}'")))?,
    };
    let positive = |flag: &'static str| -> Result<Option<f64>, CliError> {
        flag_value(args, flag)
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x > 0.0)
                    .ok_or_else(|| CliError::usage(format!("bad {flag} (want a value > 0)")))
            })
            .transpose()
    };
    let max_samples = flag_value(args, "--samples")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| CliError::usage("bad --samples (want a count)"))
        })
        .transpose()?
        .unwrap_or(1_000_000);
    let seed = flag_value(args, "--seed")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| CliError::usage("bad --seed (want an integer)"))
        })
        .transpose()?
        .unwrap_or(0);
    Ok(montecarlo::McSettings {
        seed,
        estimator,
        target: montecarlo::StopTarget {
            rel_err: positive("--rel-err")?,
            ci_half: positive("--ci")?,
            max_samples,
        },
        ..Default::default()
    })
}

/// `--explain`: prints the decomposition plan the auto strategy will
/// execute, or says why there is none. Informational only — planning
/// failures here never abort the computation.
fn explain(net: &netgraph::Network, demand: FlowDemand, strategy: &Strategy, opts: &CalcOptions) {
    if *strategy != Strategy::Auto {
        outln!("plan: not applicable ({strategy:?} does not use the decomposition planner)");
        return;
    }
    // Mirror the calculator: reduce first (when enabled), plan the remnant,
    // and render the plan wrapped in the reduction node so link references
    // read in the original numbering.
    let red = opts
        .reduce
        .then(|| flowrel_core::reduce(net, demand, true, opts.solver))
        .filter(|r| !r.is_identity());
    if let Some(r) = &red {
        outln!("{}", r.summary());
    }
    let (pnet, pdemand) = red.as_ref().map_or((net, demand), |r| (&r.net, r.demand));
    let planned = find_bottleneck_set(pnet, pdemand.source, pdemand.sink, 3)
        .and_then(|set| DecompositionPlan::plan_on_set(pnet, pdemand, &set, opts, 3));
    match planned {
        Ok(plan) => {
            let plan = match &red {
                Some(r) => plan.with_reduction(r),
                None => plan,
            };
            out!("{}", plan.render());
        }
        Err(e) => outln!("plan: none ({e}); the strategy will fall back or fail accordingly"),
    }
}

/// `--explain`, after the run: per-leaf-slot accounting from the plan
/// interpreter — how the configuration budget was apportioned across the
/// subtrees and what each sweep actually cost compared to the planner's
/// prediction. Empty for one-level (non-planned) runs.
fn explain_slots(slots: &[flowrel_core::PlanSlotReport]) {
    if slots.is_empty() {
        return;
    }
    outln!(
        "plan accounting: {} leaf slot{} (predicted = configs left at start; share = budget fraction granted)",
        slots.len(),
        if slots.len() == 1 { "" } else { "s" }
    );
    outln!(
        "{:>6} {:>6} {:>12} {:>8} {:>12} {:>10}",
        "slot",
        "kind",
        "predicted",
        "share",
        "configs",
        "explored"
    );
    for s in slots {
        let share = if s.share > 0.0 {
            format!("{:.1}%", 100.0 * s.share)
        } else {
            "-".to_string()
        };
        outln!(
            "{:>6} {:>6} {:>12.3e} {:>8} {:>12} {:>9.3}%",
            format!("#{}", s.index),
            s.kind,
            s.predicted,
            share,
            s.configs,
            100.0 * s.explored
        );
    }
    for s in slots.iter().filter(|s| s.kind == "mc") {
        outln!(
            "slot #{} sampled: predicted exact cost {:.3e} configs exceeded its apportioned \
             budget share ({:.1}%), so the leaf ran the Monte-Carlo estimator instead \
             ({} samples drawn)",
            s.index,
            s.predicted,
            100.0 * s.share,
            s.configs
        );
    }
}

fn cmd_compute(path: &str, args: &[String]) -> Result<(), CliError> {
    check_flags(args, COMPUTE_FLAGS)?;
    let file = load(path)?;
    let demand = demand_of(&file)?;
    let strategy = match flag_value(args, "--strategy").as_deref() {
        None | Some("auto") => Strategy::Auto,
        Some("naive") => Strategy::Naive,
        Some("factoring") => Strategy::Factoring,
        Some("mc") => Strategy::MonteCarlo(mc_settings(args)?),
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown strategy '{other}' (expected auto|naive|factoring|mc)"
            )))
        }
    };
    let time_limit = flag_value(args, "--timeout")
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && s.is_finite())
                .ok_or_else(|| CliError::usage("bad --timeout (want seconds > 0)"))
        })
        .transpose()?
        .map(Duration::from_secs_f64);
    let max_configs = flag_value(args, "--max-configs")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| CliError::usage("bad --max-configs (want a count)"))
        })
        .transpose()?;
    let checkpoint_path =
        flag_value(args, "--checkpoint").unwrap_or_else(|| format!("{path}.ckpt"));
    // Shared two-stage handler: first SIGINT/SIGTERM trips the token (the
    // sweep stops at a clean cursor and writes its checkpoint), the second
    // hard-exits 128+signo. Shared with flowrel-server so both binaries
    // behave identically under init systems and Ctrl-C alike.
    let cancel: CancelToken = flowrel_shutdown::ShutdownSignal::install().token();
    let parallel_threshold = flag_value(args, "--parallel-threshold")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| CliError::usage("bad --parallel-threshold (want a config count)"))
        })
        .transpose()?;
    let max_depth = flag_value(args, "--max-depth")
        .map(|v| {
            v.parse::<usize>().map_err(|_| {
                CliError::usage("bad --max-depth (want a depth, 0 disables recursion)")
            })
        })
        .transpose()?;
    let defaults = CalcOptions::default();
    let hybrid = args.iter().any(|a| a == "--hybrid");
    let opts = CalcOptions {
        parallel: args.iter().any(|a| a == "--parallel"),
        certificate_cache: !args.iter().any(|a| a == "--no-certs"),
        incremental: !args.iter().any(|a| a == "--no-incremental"),
        reduce: !args.iter().any(|a| a == "--no-reduce"),
        parallel_threshold: parallel_threshold.unwrap_or(defaults.parallel_threshold),
        max_depth: max_depth.unwrap_or(defaults.max_depth),
        hybrid,
        // the sampling flags double as the hybrid leaf-estimator settings
        hybrid_mc: if hybrid {
            mc_settings(args)?
        } else {
            defaults.hybrid_mc.clone()
        },
        budget: Budget {
            time_limit,
            max_configs,
            cancel: Some(cancel),
        },
        ..defaults
    };
    let calc = ReliabilityCalculator::new()
        .with_strategy(strategy)
        .with_options(opts);
    let explaining = args.iter().any(|a| a == "--explain");
    if explaining {
        explain(&file.net, demand, &calc.strategy, &calc.options);
    }
    let outcome = match flag_value(args, "--resume") {
        Some(ck_path) => {
            let text = std::fs::read_to_string(&ck_path)
                .map_err(|e| CliError::io(format!("{ck_path}: {e}")))?;
            let ck = Checkpoint::from_text(&text)?;
            calc.resume(&file.net, demand, &ck)?
        }
        None => calc.run(&file.net, demand)?,
    };
    let report = match outcome {
        Outcome::Complete(report) => report,
        Outcome::Partial(partial) => {
            std::fs::write(&checkpoint_path, partial.checkpoint.to_text())
                .map_err(|e| CliError::io(format!("{checkpoint_path}: {e}")))?;
            if explaining {
                if let Some(b) = &partial.bottleneck {
                    explain_slots(&b.plan_slots);
                }
            }
            if let Some(mc) = &partial.mc {
                outln!(
                    "partial estimate: reliability in [{:.12}, {:.12}]  (via {}, 95% Wilson \
                     interval from {} samples — statistical, not certified)",
                    partial.r_low,
                    partial.r_high,
                    partial.algorithm,
                    mc.samples
                );
            } else {
                outln!(
                    "partial result: reliability in [{:.12}, {:.12}]  (via {}, {:.3}% of the \
                     configuration space explored)",
                    partial.r_low,
                    partial.r_high,
                    partial.algorithm,
                    100.0 * partial.explored
                );
            }
            outln!("checkpoint written to {checkpoint_path}");
            outln!("resume with: flowrel compute {path} --resume {checkpoint_path}");
            let quality = if partial.certified {
                "certified"
            } else {
                "statistical (95% Wilson)"
            };
            return Err(CliError {
                code: EXIT_INCOMPLETE,
                message: format!(
                    "incomplete: budget exhausted, bounds [{:.12}, {:.12}] {quality}",
                    partial.r_low, partial.r_high
                ),
            });
        }
    };
    outln!(
        "reliability = {:.12}  (via {})",
        report.reliability,
        report.algorithm
    );
    if report.certified {
        outln!("certainty   : certified (exact enumeration)");
    } else {
        outln!(
            "certainty   : statistical — 95% interval [{:.12}, {:.12}]",
            report.interval.0,
            report.interval.1
        );
    }
    if let Some(b) = report.bottleneck {
        outln!(
            "bottleneck: {:?}  |E_s|={} |E_t|={} alpha={:.3} |D|={}",
            b.set.edges,
            b.set.side_s_edges,
            b.set.side_t_edges,
            b.alpha,
            b.assignment_count
        );
        if b.sweep.configs > 0 {
            outln!(
                "sweep: {} configs, {} solver calls, {} avoided by certificates ({:.1}% hit rate)",
                b.sweep.configs,
                b.sweep.solver_calls,
                b.sweep.solver_calls_avoided(),
                100.0 * b.sweep.hit_rate()
            );
        }
        if b.sweep.flips > 0 || b.sweep.full_resolves > 0 {
            outln!(
                "warm repair: {} edge flips absorbed, {} paths cancelled, {} full re-solves",
                b.sweep.flips,
                b.sweep.repairs,
                b.sweep.full_resolves
            );
        }
        if explaining {
            explain_slots(&b.plan_slots);
        }
    }
    if let Some(mc) = report.mc {
        if mc.exact {
            outln!(
                "mc: value classified exactly ({} flow evals, no sampling needed)",
                mc.flow_evals
            );
        } else {
            outln!(
                "mc: 95% CI [{:.12}, {:.12}]  se={:.3e}  {} samples, {} flow evals",
                mc.ci_low,
                mc.ci_high,
                mc.std_error,
                mc.samples,
                mc.flow_evals
            );
        }
    }
    if args.iter().any(|a| a == "--exact") {
        let exact = reliability_naive_exact(&file.net, demand, &CalcOptions::default())?;
        outln!("exact       = {exact}");
        outln!("            = {}…", exact.to_decimal_string(15));
    }
    Ok(())
}

fn cmd_analyze(path: &str, args: &[String]) -> Result<(), CliError> {
    check_flags(args, ANALYZE_FLAGS)?;
    let file = load(path)?;
    let net = &file.net;
    outln!(
        "{} network: {} nodes, {} links",
        match net.kind() {
            netgraph::GraphKind::Directed => "directed",
            netgraph::GraphKind::Undirected => "undirected",
        },
        net.node_count(),
        net.edge_count()
    );
    let bridges = find_bridges(net);
    outln!("bridges: {bridges:?}");
    let Some(demand) = file.demand else {
        outln!("(no demand line: skipping demand-specific analysis)");
        return Ok(());
    };
    let max_k: usize = flag_value(args, "--max-k")
        .map(|v| v.parse().map_err(|_| CliError::usage("bad --max-k")))
        .transpose()?
        .unwrap_or(3);
    let cut = maxflow::min_cut(net, demand.source, demand.sink, maxflow::SolverKind::Dinic);
    outln!(
        "max flow {} -> {}: {} (min cut {:?})",
        demand.source,
        demand.sink,
        cut.value,
        cut.edges
    );
    match find_bottleneck_set(net, demand.source, demand.sink, max_k) {
        Ok(set) => outln!(
            "best bottleneck set (k <= {max_k}): {:?}  |E_s|={} |E_t|={} alpha={:.3}",
            set.edges,
            set.side_s_edges,
            set.side_t_edges,
            set.alpha(net.edge_count())
        ),
        Err(e) => outln!("bottleneck search: {e}"),
    }
    if demand.demand == 1 && net.edge_count() <= 20 {
        if let Ok((lo, hi)) = esary_proschan_bounds(net, demand, 100_000) {
            outln!("Esary-Proschan bounds: [{lo:.6}, {hi:.6}]");
        }
        if let Ok(cuts) = enumerate_minimal_cuts(net, demand.source, demand.sink, 4) {
            outln!("minimal cut sets (size <= 4): {}", cuts.len());
        }
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    // each generator takes up to this many positional parameters
    let arity = match args.first().map(String::as_str) {
        Some("barbell" | "degraded-barbell") => 5,
        Some("mesh") => 4,
        _ => 3,
    };
    if let Some(stray) = args.get(arity + 1) {
        return Err(CliError::usage(format!("unexpected argument '{stray}'")));
    }
    let parse_or = |i: usize, default: u64| -> u64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    let (net, demand) = match args.first().map(String::as_str) {
        Some("barbell") => {
            let (inst, _) = workloads::generators::barbell(workloads::generators::BarbellParams {
                cluster_nodes: parse_or(1, 4) as usize,
                cluster_extra_edges: parse_or(2, 2) as usize,
                cut_links: parse_or(3, 2) as usize,
                cut_capacity: parse_or(4, 2),
                demand: parse_or(4, 2),
                seed: parse_or(5, 1),
            });
            (
                inst.net,
                FlowDemand::new(inst.source, inst.sink, inst.demand),
            )
        }
        Some("chain") => {
            let inst = workloads::generators::bridge_chain(
                parse_or(1, 3) as usize,
                parse_or(2, 1),
                parse_or(3, 1),
            );
            (
                inst.net,
                FlowDemand::new(inst.source, inst.sink, inst.demand),
            )
        }
        Some("grid") => {
            let inst = workloads::generators::grid(
                parse_or(1, 3) as usize,
                parse_or(2, 3) as usize,
                parse_or(3, 1),
            );
            (
                inst.net,
                FlowDemand::new(inst.source, inst.sink, inst.demand),
            )
        }
        Some("mesh") => {
            let peers: Vec<flowrel_overlay::Peer> = (0..parse_or(1, 8))
                .map(|i| flowrel_overlay::Peer::new(4, 300.0 + 60.0 * (i % 5) as f64))
                .collect();
            let sc = flowrel_overlay::random_mesh(
                &peers,
                parse_or(2, 2) as usize,
                parse_or(3, 1),
                &flowrel_overlay::ChurnModel::new(90.0),
                parse_or(4, 1),
            );
            let Some(&sub) = sc.peers.last() else {
                return Err(CliError::usage("mesh: need at least one peer"));
            };
            (sc.net, FlowDemand::new(sc.server, sub, sc.stream_rate))
        }
        Some("slack-barbell") => {
            let inst = workloads::generators::slack_barbell(
                parse_or(1, 3) as usize,
                parse_or(2, 2) as usize,
                parse_or(3, 1),
            );
            (
                inst.net,
                FlowDemand::new(inst.source, inst.sink, inst.demand),
            )
        }
        Some("degraded-barbell") => {
            let (inst, _) =
                workloads::generators::degraded_barbell(workloads::generators::BarbellParams {
                    cluster_nodes: parse_or(1, 4) as usize,
                    cluster_extra_edges: parse_or(2, 2) as usize,
                    cut_links: parse_or(3, 2) as usize,
                    cut_capacity: parse_or(4, 2),
                    demand: parse_or(4, 2),
                    seed: parse_or(5, 1),
                });
            (
                inst.net,
                FlowDemand::new(inst.source, inst.sink, inst.demand),
            )
        }
        _ => {
            return Err(CliError::usage(
                "generate: expected barbell|chain|grid|mesh|slack-barbell|degraded-barbell",
            ))
        }
    };
    out!("{}", format::serialize(&net, Some(demand)));
    Ok(())
}

fn cmd_importance(path: &str, args: &[String]) -> Result<(), CliError> {
    check_flags(args, &[])?;
    let file = load(path)?;
    let demand = demand_of(&file)?;
    let imp = birnbaum_importance(&file.net, demand, &CalcOptions::default())?;
    outln!("reliability = {:.9}", imp.reliability);
    outln!(
        "{:>6} {:>14} {:>12} {:>12}  link",
        "rank",
        "potential",
        "birnbaum",
        "p(e)"
    );
    for (rank, &e) in imp.ranked().iter().enumerate() {
        let edge = file.net.edge(netgraph::EdgeId::from(e));
        outln!(
            "{:>6} {:>14.6} {:>12.6} {:>12.4}  e{e}: {} -> {}",
            rank + 1,
            imp.improvement[e],
            imp.birnbaum[e],
            edge.fail_prob,
            edge.src,
            edge.dst
        );
    }
    Ok(())
}

fn cmd_dot(path: &str, args: &[String]) -> Result<(), CliError> {
    check_flags(args, &[])?;
    let file = load(path)?;
    out!("{}", netgraph::dot::to_dot(&file.net, &[]));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match (cmd.as_str(), rest.first()) {
        ("compute", Some(path)) => cmd_compute(path, &rest[1..]),
        ("analyze", Some(path)) => cmd_analyze(path, &rest[1..]),
        ("importance", Some(path)) => cmd_importance(path, &rest[1..]),
        ("generate", _) => cmd_generate(rest),
        ("dot", Some(path)) => cmd_dot(path, &rest[1..]),
        _ => return usage(),
    };
    let code = match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {}", e.message);
            e.code
        }
    };
    // a failed run keeps its own status; a report that could not be
    // written fails an otherwise successful one
    ExitCode::from(exit_status("error", code))
}
