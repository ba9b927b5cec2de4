//! The per-layer trace, recorded from outside the program.
//!
//! A traced operation replays what [`ReliabilityCalculator::run`] does for
//! the auto and Monte-Carlo strategies, through each layer's public
//! functions and in the calculator's order: `fnet::parse` →
//! `instance_fingerprint` (which a server computes) → `reduce` →
//! `find_bottleneck_set` → the worth-it gate →
//! `DecompositionPlan::plan_on_set` → `execute`, with the naive sweep as the
//! fallback; Monte-Carlo runs `reduce` → strata search →
//! `montecarlo::engine::run`. Each call is a span.
//! The replica's answer must equal the untraced run's bit for bit; when it
//! does not, the replica no longer follows the calculator and the run's
//! per-layer numbers are not to be trusted.
//!
//! [`ReliabilityCalculator::run`]: flowrel_core::ReliabilityCalculator::run

use std::io::Write as _;
use std::time::Instant;

use flowrel_core::{
    find_bottleneck_set, fnet, instance_fingerprint, reduce, reliability_naive_anytime,
    CalcOptions, DecompositionPlan, FlowDemand, NaiveOutcome, PlanOutcome, ReliabilityError,
    Strategy, SweepStats,
};
use flowrel_server::json::{obj, Json};
use montecarlo::{engine, EstimatorKind, McBudget, McOutcome};
use netgraph::Network;

use crate::ops::Answer;
use crate::Metric;

/// Cut cardinality the auto strategy searches and plans with.
const AUTO_MAX_K: usize = 3;

/// One timed call.
pub struct Span {
    /// The operation it belongs to.
    pub op: u32,
    /// The layer call.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// An empty trace.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts operation `op`: spans opened from now on belong to it.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Total milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ms = self.spans.iter().filter(|s| s.name == name).map(Span::ms);
        ms.fold(0.0, |a, b| a + b)
    }

    /// Total milliseconds of the spans directly inside spans named `name`.
    pub fn children_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(Span::ms)
            .fold(0.0, |a, b| a + b)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = obj([
                ("op", Json::Num(f64::from(s.op))),
                ("name", Json::Str(s.name.into())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Work counters the layers report, summed over the traced operations.
#[derive(Default)]
pub struct Counters {
    /// Sweep-engine counters of every plan and naive sweep.
    pub sweep: SweepStats,
    /// Plan leaf slots.
    pub leaves: u64,
    /// Monte-Carlo samples drawn.
    pub samples: u64,
    /// Monte-Carlo max-flow evaluations.
    pub flow_evals: u64,
    /// Fallible links before reduction.
    pub fallible_before: u64,
    /// Fallible links after reduction.
    pub fallible_after: u64,
}

/// Replays one operation with a span around every layer call. The instance
/// fingerprint that a server or checkpoint keys by is timed after parsing,
/// where the server computes it; the calculator itself does not, and at a
/// few microseconds it is noise in the trace's coverage.
pub fn replicate(
    tr: &mut Tracer,
    k: &mut Counters,
    text: &str,
    strategy: &Strategy,
    opts: &CalcOptions,
) -> Result<Answer, String> {
    let root = tr.open("op");
    let out = replicate_op(tr, k, text, strategy, opts);
    tr.close(root);
    out
}

fn replicate_op(
    tr: &mut Tracer,
    k: &mut Counters,
    text: &str,
    strategy: &Strategy,
    opts: &CalcOptions,
) -> Result<Answer, String> {
    let file = tr
        .time("fnet.parse", || fnet::parse(text))
        .map_err(|e| format!("parse: {e}"))?;
    let demand = file.demand.ok_or("the text has no demand line")?;
    let net = &file.net;
    if !opts.reduce || opts.budget.is_unlimited() {
        return Err("the replica follows budgeted runs with reduction on".into());
    }
    tr.time("checkpoint.fingerprint", || {
        instance_fingerprint(net, &demand, opts)
    });
    demand.validate(net).map_err(|e| e.to_string())?;
    let red = tr.time("reduce", || reduce(net, demand, true, opts.solver));
    k.fallible_before += red.original_fallible as u64;
    k.fallible_after += red.fallible_links() as u64;
    let (rnet, rdemand) = if red.is_identity() {
        (net, demand)
    } else {
        (&red.net, red.demand)
    };
    match strategy {
        Strategy::Auto => auto(tr, k, rnet, rdemand, opts),
        Strategy::MonteCarlo(s) if s.strata.is_empty() => {
            monte_carlo(tr, k, rnet, rdemand, s, opts)
        }
        other => Err(format!("no replica for strategy {other:?}")),
    }
}

/// Errors on which the auto strategy abandons the decomposition.
fn falls_through(e: &ReliabilityError) -> bool {
    matches!(
        e,
        ReliabilityError::TooManyAssignments { .. }
            | ReliabilityError::SideTooLarge { .. }
            | ReliabilityError::TooManyEdges { .. }
    )
}

fn auto(
    tr: &mut Tracer,
    k: &mut Counters,
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<Answer, String> {
    let found = tr.time("bottleneck.search", || {
        find_bottleneck_set(net, demand.source, demand.sink, AUTO_MAX_K)
    });
    if let Ok(set) = found {
        let worth_it = set.side_s_edges.max(set.side_t_edges) + 2 < net.edge_count();
        if worth_it {
            let planned = tr.time("plan.build", || {
                DecompositionPlan::plan_on_set(net, demand, &set, opts, AUTO_MAX_K)
            });
            let executed = match planned {
                Ok(plan) => {
                    k.leaves += plan.leaf_count() as u64;
                    tr.time("plan.execute", || plan.execute(opts, None))
                }
                Err(e) => Err(e),
            };
            match executed {
                Ok(PlanOutcome::Complete {
                    reliability,
                    r_low,
                    r_high,
                    certified,
                    stats,
                    ..
                }) => {
                    k.sweep.merge(&stats);
                    return Ok(Answer {
                        complete: true,
                        certified,
                        value: reliability,
                        lo: r_low,
                        hi: r_high,
                    });
                }
                Ok(PlanOutcome::Partial {
                    r_low,
                    r_high,
                    certified,
                    stats,
                    ..
                }) => {
                    k.sweep.merge(&stats);
                    return Ok(Answer::partial(certified, r_low, r_high));
                }
                Err(e) if falls_through(&e) => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }
    // a budgeted run falls back to the naive sweep, not to factoring
    let swept = tr
        .time("naive.sweep", || {
            reliability_naive_anytime(net, demand, opts, None)
        })
        .map_err(|e| e.to_string())?;
    Ok(match swept {
        NaiveOutcome::Complete { reliability, stats } => {
            k.sweep.merge(&stats);
            Answer {
                complete: true,
                certified: true,
                value: reliability,
                lo: reliability,
                hi: reliability,
            }
        }
        NaiveOutcome::Partial {
            r_low,
            r_high,
            stats,
            ..
        } => {
            k.sweep.merge(&stats);
            Answer::partial(true, r_low, r_high)
        }
    })
}

fn monte_carlo(
    tr: &mut Tracer,
    k: &mut Counters,
    net: &Network,
    demand: FlowDemand,
    settings: &montecarlo::McSettings,
    opts: &CalcOptions,
) -> Result<Answer, String> {
    let mut resolved = settings.clone();
    if resolved.estimator == EstimatorKind::Auto {
        resolved.estimator = EstimatorKind::Permutation;
        if !net.has_multistate() {
            let found = tr.time("bottleneck.search", || {
                find_bottleneck_set(net, demand.source, demand.sink, AUTO_MAX_K)
            });
            match found {
                Ok(set) if set.edges.len() <= montecarlo::MAX_STRATA_LINKS => {
                    resolved.estimator = EstimatorKind::Dagger;
                    resolved.strata = set.edges;
                }
                _ => {}
            }
        }
    }
    let budget = McBudget {
        time_limit: opts.budget.time_limit,
        max_samples: opts.budget.max_configs,
        cancel: opts.budget.cancel.as_ref().map(|t| t.as_flag()),
    };
    let out = tr
        .time("montecarlo.engine", || {
            engine::run(
                net,
                demand.source,
                demand.sink,
                demand.demand,
                &resolved,
                &budget,
                opts.parallel,
            )
        })
        .map_err(|e| e.to_string())?;
    let r = *out.report();
    k.samples += r.samples;
    k.flow_evals += r.flow_evals;
    Ok(match out {
        McOutcome::Done(_) => Answer {
            complete: true,
            certified: r.exact,
            value: r.mean,
            lo: r.ci_low,
            hi: r.ci_high,
        },
        McOutcome::Interrupted { .. } => Answer::partial(false, r.ci_low, r.ci_high),
    })
}

/// Serving-layer figures of a traced `overlay-serve` run; zero elsewhere.
#[derive(Default)]
pub struct ServeLayers {
    /// Share of a computed reply's latency the server adds on top of the
    /// in-process compute of the same query.
    pub overhead_share: f64,
    /// Share of requests answered from the result cache.
    pub result_hit_rate: f64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Sessions parked at the end of the run.
    pub parked: u64,
    /// Share of requests the load generator sent more than 1 ms late.
    pub late_frac: f64,
}

/// Everything a traced run measured.
pub struct TraceRun {
    /// The spans.
    pub tracer: Tracer,
    /// Layer counters.
    pub counters: Counters,
    /// Operations traced.
    pub ops: u64,
    /// Total wall time of the same operations run untraced.
    pub untraced_ms: f64,
    /// Replica answers that differed from the untraced answer.
    pub mismatches: u64,
    /// Serving-layer figures.
    pub serve: ServeLayers,
}

impl TraceRun {
    /// A traced run with nothing recorded yet.
    pub fn new() -> TraceRun {
        TraceRun {
            tracer: Tracer::new(),
            counters: Counters::default(),
            ops: 0,
            untraced_ms: 0.0,
            mismatches: 0,
            serve: ServeLayers::default(),
        }
    }

    /// Runs operation `op` untraced, then traced, and compares the answers.
    /// Returns the untraced answer and its wall time in milliseconds.
    pub fn record(
        &mut self,
        op: u32,
        text: &str,
        strategy: &Strategy,
        opts: &CalcOptions,
    ) -> (Result<Answer, String>, f64) {
        let t0 = Instant::now();
        let plain = crate::ops::solve(text, strategy, opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.tracer.begin_op(op);
        let traced = replicate(&mut self.tracer, &mut self.counters, text, strategy, opts);
        let agree = match (&plain, &traced) {
            (Ok(a), Ok(b)) => a.same(b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !agree {
            self.mismatches += 1;
            eprintln!("trace: replica of op {op} answered {traced:?}, the calculator {plain:?}");
        }
        self.ops += 1;
        self.untraced_ms += ms;
        (plain, ms)
    }

    /// The per-layer metrics; `speed` scales the run's times to the
    /// reference machine speed (see `clock.rs`).
    pub fn metrics(&self, speed: f64) -> Vec<Metric> {
        let t = &self.tracer;
        let n = self.ops.max(1) as f64;
        // per-operation times at the reference speed
        let ops = n / speed;
        let op_ms = t.total_ms("op").max(f64::MIN_POSITIVE);
        let share = |name: &str| t.total_ms(name) / op_ms;
        let k = &self.counters;
        let s = &k.sweep;
        let leaf_ms = t.total_ms("plan.execute")
            + t.total_ms("naive.sweep")
            + t.total_ms("montecarlo.engine");
        let units = (s.configs + k.samples).max(1) as f64;
        let shed = if k.fallible_before == 0 {
            0.0
        } else {
            1.0 - k.fallible_after as f64 / k.fallible_before as f64
        };
        let untraced = self.untraced_ms.max(f64::MIN_POSITIVE);
        vec![
            Metric::new("fnet.parse_ms", t.total_ms("fnet.parse") / ops, "ms"),
            Metric::new(
                "checkpoint.fingerprint_ms",
                t.total_ms("checkpoint.fingerprint") / ops,
                "ms",
            ),
            Metric::new("reduce.ms", t.total_ms("reduce") / ops, "ms"),
            Metric::new("reduce.bits_shed_frac", shed, "frac"),
            Metric::new(
                "bottleneck.search_ms",
                t.total_ms("bottleneck.search") / ops,
                "ms",
            ),
            Metric::new(
                "bottleneck.search_share",
                share("bottleneck.search"),
                "frac",
            ),
            Metric::new("plan.build_share", share("plan.build"), "frac"),
            Metric::new("plan.leaves", k.leaves as f64 / n, "count"),
            Metric::new(
                "sweep.share",
                share("plan.execute") + share("naive.sweep"),
                "frac",
            ),
            Metric::new("sweep.configs", s.configs as f64 / n, "count"),
            Metric::new("certcache.hit_rate", s.hit_rate(), "frac"),
            Metric::new("certcache.solver_calls", s.solver_calls as f64 / n, "count"),
            Metric::new("maxflow.flips", s.flips as f64 / n, "count"),
            Metric::new("maxflow.repairs", s.repairs as f64 / n, "count"),
            Metric::new("maxflow.full_resolves", s.full_resolves as f64 / n, "count"),
            Metric::new(
                "montecarlo.engine_share",
                share("montecarlo.engine"),
                "frac",
            ),
            Metric::new("montecarlo.samples", k.samples as f64 / n, "count"),
            Metric::new("montecarlo.flow_evals", k.flow_evals as f64 / n, "count"),
            Metric::new("leaf.ns_per_unit", leaf_ms * speed * 1e6 / units, "ns"),
            Metric::new("server.overhead_share", self.serve.overhead_share, "frac"),
            Metric::new("cache.result_hit_rate", self.serve.result_hit_rate, "frac"),
            Metric::new("admission.shed", self.serve.shed as f64, "count"),
            Metric::new("park.parked", self.serve.parked as f64, "count"),
            Metric::new("client.late_frac", self.serve.late_frac, "frac"),
            Metric::new("trace.coverage", t.children_ms("op") / untraced, "frac"),
            Metric::new("trace.overhead_frac", op_ms / untraced - 1.0, "frac"),
            Metric::new("trace.replica_mismatches", self.mismatches as f64, "count"),
            Metric::new("trace.ops", self.ops as f64, "count"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut tr = Tracer::new();
        tr.begin_op(7);
        let root = tr.open("op");
        let x = tr.time("inner", || 41 + 1);
        tr.close(root);
        assert_eq!(x, 42);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(tr.children_ms("op") <= tr.total_ms("op"));
    }

    #[test]
    fn replica_matches_the_calculator() {
        let entries = crate::catalog::entries(crate::catalog::Workload::NestedPlan, true);
        let mut run = TraceRun::new();
        for (i, e) in entries.iter().take(3).enumerate() {
            let (answer, _) = run.record(
                i as u32,
                &e.text(),
                &Strategy::Auto,
                &crate::ops::library_options(),
            );
            assert!(answer.is_ok());
        }
        assert_eq!(run.mismatches, 0);
        assert_eq!(run.ops, 3);
        assert!(run.tracer.total_ms("plan.execute") > 0.0);
    }
}
