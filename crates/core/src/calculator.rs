//! Strategy selection: one entry point that picks the right algorithm.

use netgraph::{EdgeId, Network};

use crate::algorithm::BottleneckReport;
use crate::bottleneck::{find_bottleneck_set, validate_bottleneck_set, BottleneckSet};
use crate::checkpoint::{
    instance_fingerprint, Checkpoint, CheckpointKind, NaiveCheckpoint, PlanCheckpoint,
    PlanLeafState,
};
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::factoring::reliability_factoring_anytime;
use crate::naive::{reliability_naive_anytime, NaiveOutcome};
use crate::options::CalcOptions;
use crate::plan::{DecompositionPlan, PlanOutcome};
use crate::reduce::{reduce, Reduction};

/// Recursive-cut cardinality searched below the root split when the strategy
/// does not name one (explicit [`Strategy::Bottleneck`] cuts and the auto
/// strategies all recurse with this `k`).
const PLAN_RECURSE_K: usize = 3;

/// The mixed radices of the instance's state digits, used to stamp and
/// validate multi-state checkpoints. `None` for all-binary instances, so
/// their checkpoints keep the exact legacy byte layout (no `radices` line).
fn net_radices(net: &Network) -> Option<Vec<u32>> {
    if !net.has_multistate() {
        return None;
    }
    netgraph::StateExpansion::build(net)
        .ok()
        .map(|x| x.radices())
}

/// Marks an algorithm name as having run on the structurally reduced
/// instance. Idempotent, so resume restamping can't double-prefix.
fn reduced_name(alg: &'static str) -> &'static str {
    match alg {
        "naive" => "reduce+naive",
        "factoring" => "reduce+factoring",
        "bottleneck" => "reduce+bottleneck",
        "bottleneck-auto" => "reduce+bottleneck-auto",
        "auto:bottleneck" => "reduce+auto:bottleneck",
        "auto:naive" => "reduce+auto:naive",
        "auto:factoring" => "reduce+auto:factoring",
        "montecarlo:dagger" => "reduce+montecarlo:dagger",
        "montecarlo:perm" => "reduce+montecarlo:perm",
        "montecarlo:crude" => "reduce+montecarlo:crude",
        other => other,
    }
}

/// Which algorithm to run.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Strategy {
    /// Look for a bottleneck set (up to the given `k`); decompose when the
    /// split pays off, otherwise fall back to factoring.
    #[default]
    Auto,
    /// Exhaustive `2^|E|` enumeration (the paper's baseline).
    Naive,
    /// Conditioning with flow-based pruning.
    Factoring,
    /// Bottleneck decomposition along the given links.
    Bottleneck(Vec<EdgeId>),
    /// Bottleneck decomposition, discovering the best set with `k ≤ max_k`.
    BottleneckAuto {
        /// Largest bottleneck-set cardinality to search for.
        max_k: usize,
    },
    /// Monte-Carlo estimation (the scale path when enumeration is hopeless).
    ///
    /// Unlike the exact strategies the answer is a statistical estimate: the
    /// report's `reliability` is the sample mean and the accompanying
    /// [`montecarlo::McReport`] carries the Wilson 95% interval. With
    /// [`montecarlo::EstimatorKind::Auto`] the calculator looks for a small
    /// bottleneck set and conditions on it (dagger sampling); failing that it
    /// falls back to the permutation estimator, which keeps its relative
    /// error bounded even for very reliable networks.
    MonteCarlo(montecarlo::McSettings),
}

/// What was computed and how.
#[derive(Clone, Debug)]
pub struct ReliabilityReport {
    /// The reliability of the network w.r.t. the demand.
    pub reliability: f64,
    /// True when the value is exact (up to compensated `f64` rounding);
    /// false when any part of it was estimated statistically (the
    /// Monte-Carlo strategy without an exact shortcut, or a hybrid plan
    /// with at least one sampled leaf).
    pub certified: bool,
    /// `[r_low, r_high]` around `reliability`: degenerate when `certified`,
    /// the 95% confidence interval otherwise.
    pub interval: (f64, f64),
    /// Human-readable name of the algorithm that produced the value.
    pub algorithm: &'static str,
    /// Present when a bottleneck decomposition ran.
    pub bottleneck: Option<BottleneckReport>,
    /// Present when Monte-Carlo estimation ran: interval, sample and
    /// flow-evaluation counts. `reliability` equals its `mean`.
    pub mc: Option<montecarlo::McReport>,
}

/// A budget-interrupted result: rigorous bounds plus resume state.
#[derive(Clone, Debug)]
pub struct PartialReport {
    /// Lower bound on the reliability (certified unless `certified` is
    /// false).
    pub r_low: f64,
    /// Upper bound on the reliability (certified unless `certified` is
    /// false).
    pub r_high: f64,
    /// True when `[r_low, r_high]` is a rigorous enumeration interval;
    /// false when a statistical estimate contributed (Monte-Carlo partials,
    /// hybrid plans with a sampled leaf).
    pub certified: bool,
    /// Fraction of the configuration space examined so far, in `[0, 1]`.
    pub explored: f64,
    /// Human-readable name of the interrupted algorithm.
    pub algorithm: &'static str,
    /// Present when a bottleneck decomposition was running.
    pub bottleneck: Option<BottleneckReport>,
    /// Present when Monte-Carlo estimation was interrupted. For Monte-Carlo
    /// partials `[r_low, r_high]` is the Wilson 95% interval so far —
    /// statistical, not the certified enumeration bounds of the exact
    /// algorithms.
    pub mc: Option<montecarlo::McReport>,
    /// Resume state; feed to [`ReliabilityCalculator::resume`] (or serialize
    /// with [`Checkpoint::to_text`]) to continue the sweep later.
    pub checkpoint: Checkpoint,
}

/// Result of a budget-aware calculation ([`ReliabilityCalculator::run`]).
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The computation finished; the value is exact.
    Complete(Box<ReliabilityReport>),
    /// The budget ran out (or the run was cancelled): rigorous bounds and a
    /// checkpoint. Never produced when the budget is unlimited.
    Partial(Box<PartialReport>),
}

impl Outcome {
    /// The exact reliability, if the computation finished.
    pub fn reliability(&self) -> Option<f64> {
        match self {
            Outcome::Complete(rep) => Some(rep.reliability),
            Outcome::Partial(_) => None,
        }
    }

    /// `[r_low, r_high]` bounds: degenerate for a certified complete run,
    /// the confidence interval for a statistical one.
    pub fn bounds(&self) -> (f64, f64) {
        match self {
            Outcome::Complete(rep) => rep.interval,
            Outcome::Partial(p) => (p.r_low, p.r_high),
        }
    }

    /// True when no statistical estimate contributed to the answer.
    pub fn certified(&self) -> bool {
        match self {
            Outcome::Complete(rep) => rep.certified,
            Outcome::Partial(p) => p.certified,
        }
    }
}

/// Facade that picks and runs a reliability algorithm.
///
/// ```
/// use flowrel_core::{ReliabilityCalculator, FlowDemand};
/// use netgraph::{NetworkBuilder, GraphKind};
///
/// let mut b = NetworkBuilder::new(GraphKind::Directed);
/// let s = b.add_node();
/// let t = b.add_node();
/// b.add_edge(s, t, 1, 0.1).unwrap();
/// b.add_edge(s, t, 1, 0.2).unwrap();
/// let net = b.build();
///
/// let calc = ReliabilityCalculator::new();
/// let report = calc.run_complete(&net, FlowDemand::new(s, t, 1)).unwrap();
/// assert!((report.reliability - (1.0 - 0.1 * 0.2)).abs() < 1e-12);
/// ```
///
/// With a [`crate::budget::Budget`] set in the options, use [`Self::run`]
/// instead: it returns [`Outcome::Partial`] — rigorous bounds plus a resume
/// checkpoint — when the budget runs out.
#[derive(Clone, Debug, Default)]
pub struct ReliabilityCalculator {
    /// Strategy to apply.
    pub strategy: Strategy,
    /// Shared options.
    pub options: CalcOptions,
}

impl ReliabilityCalculator {
    /// A calculator with the default (auto) strategy and options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the options.
    pub fn with_options(mut self, options: CalcOptions) -> Self {
        self.options = options;
        self
    }

    /// Computes the reliability of `net` w.r.t. `demand` under the options'
    /// budget.
    ///
    /// With the default unlimited [`crate::budget::Budget`] this always
    /// returns [`Outcome::Complete`]. With a limit set, every exact strategy
    /// stops cooperatively and returns [`Outcome::Partial`]: the enumeration
    /// sweeps and factoring's walk at clean sweep cursors, and the recursive
    /// decomposition planner at plan-leaf granularity.
    ///
    /// The bottleneck strategies (and the auto strategy's bottleneck
    /// attempt) run through the recursive decomposition planner
    /// ([`crate::plan`]): the cut's sides are themselves decomposed along
    /// nested bottlenecks up to [`CalcOptions::max_depth`] levels before any
    /// sweep runs. `max_depth: 0` restores the flat one-level decomposition.
    ///
    /// With [`CalcOptions::reduce`] (the default) the instance first goes
    /// through the structural reduction pipeline ([`crate::reduce`]); every
    /// strategy then sweeps the — exactly equivalent — reduced instance.
    /// Partial checkpoints stay stamped with the *original* instance
    /// fingerprint plus the reduced shape, so resume re-derives and verifies
    /// the reduction ([`Checkpoint::reduce_shape`]).
    pub fn run(&self, net: &Network, demand: FlowDemand) -> Result<Outcome, ReliabilityError> {
        if self.options.reduce {
            demand.validate(net)?;
            let red = reduce(net, demand, true, self.options.solver);
            if !red.is_identity() {
                return self.run_reduced(net, demand, &red);
            }
        }
        self.run_strategy(net, demand)
    }

    /// Strategy dispatch on the instance exactly as given (no reduction).
    fn run_strategy(&self, net: &Network, demand: FlowDemand) -> Result<Outcome, ReliabilityError> {
        match &self.strategy {
            Strategy::Naive => self.sweep_outcome(net, demand, "naive", false, None),
            Strategy::Factoring => self.sweep_outcome(net, demand, "factoring", true, None),
            Strategy::Bottleneck(cut) => {
                if net.has_multistate() {
                    // an explicit split cannot be vetted against the v1
                    // planner rule that keeps multi-state links out of cuts
                    // and cut sides; use the auto strategies instead
                    return Err(ReliabilityError::MultiState {
                        operation: "an explicit bottleneck decomposition",
                    });
                }
                let set = validate_bottleneck_set(net, demand.source, demand.sink, cut)?;
                self.plan_outcome(net, demand, &set, PLAN_RECURSE_K, "bottleneck", None)
            }
            Strategy::BottleneckAuto { max_k } => {
                let set = find_bottleneck_set(net, demand.source, demand.sink, *max_k)?;
                self.plan_outcome(net, demand, &set, *max_k, "bottleneck-auto", None)
            }
            Strategy::MonteCarlo(settings) => self.montecarlo_outcome(net, demand, settings),
            Strategy::Auto => self.run_auto(net, demand),
        }
    }

    /// Runs the strategy on a (non-identity) reduced instance and restamps
    /// the outcome: partial checkpoints keep the *original* fingerprint and
    /// record the reduced shape, and the algorithm name gains a `reduce+`
    /// prefix so reports show that the sweep ran on the reduced instance.
    fn run_reduced(
        &self,
        net: &Network,
        demand: FlowDemand,
        red: &Reduction,
    ) -> Result<Outcome, ReliabilityError> {
        // explicit original-id link references must be translated into the
        // reduced id space; when one was removed outright the explicit
        // strategy is not expressible on the reduced instance — run unreduced
        let Some(strategy) = self.translate_strategy(red) else {
            return self.run_strategy(net, demand);
        };
        let calc = ReliabilityCalculator {
            strategy,
            options: self.options.clone(),
        };
        let mut out = calc.run_strategy(&red.net, red.demand)?;
        match &mut out {
            Outcome::Complete(rep) => rep.algorithm = reduced_name(rep.algorithm),
            Outcome::Partial(p) => {
                p.algorithm = reduced_name(p.algorithm);
                p.checkpoint.fingerprint = instance_fingerprint(net, &demand, &self.options);
                p.checkpoint.reduce_shape =
                    Some(instance_fingerprint(&red.net, &red.demand, &self.options));
            }
        }
        Ok(out)
    }

    /// Rewrites explicit original link ids in the strategy into reduced ids
    /// (merged links translate to their merged representative). `None` when
    /// a referenced link no longer exists in the reduced instance.
    fn translate_strategy(&self, red: &Reduction) -> Option<Strategy> {
        let map = red.original_to_reduced();
        let translate = |edges: &[EdgeId]| -> Option<Vec<EdgeId>> {
            let mut out: Vec<EdgeId> = Vec::with_capacity(edges.len());
            for e in edges {
                let r = (*map.get(e.index())?)?;
                if !out.contains(&r) {
                    out.push(r);
                }
            }
            Some(out)
        };
        Some(match &self.strategy {
            Strategy::Bottleneck(cut) => Strategy::Bottleneck(translate(cut)?),
            Strategy::MonteCarlo(s) if !s.strata.is_empty() => {
                let mut s = s.clone();
                s.strata = translate(&s.strata)?;
                Strategy::MonteCarlo(s)
            }
            other => other.clone(),
        })
    }

    /// As [`Self::run`], but demands a finished answer: a budget interruption
    /// surfaces as [`ReliabilityError::Interrupted`] carrying the bounds.
    pub fn run_complete(
        &self,
        net: &Network,
        demand: FlowDemand,
    ) -> Result<ReliabilityReport, ReliabilityError> {
        match self.run(net, demand)? {
            Outcome::Complete(rep) => Ok(*rep),
            Outcome::Partial(p) => Err(ReliabilityError::Interrupted {
                r_low: p.r_low,
                r_high: p.r_high,
            }),
        }
    }

    /// Continues an interrupted run from a [`Checkpoint`].
    ///
    /// The checkpoint's fingerprint must match this instance (same network,
    /// demand, and enumeration-relevant options); the algorithm is taken
    /// from the checkpoint, not from [`Self::strategy`]. A resumed serial
    /// run reproduces the uninterrupted serial result bit for bit.
    ///
    /// A checkpoint written against a reduced instance
    /// ([`Checkpoint::reduce_shape`]) re-derives the (deterministic)
    /// reduction and verifies its shape before splicing the cursors back in;
    /// legacy checkpoints without the shape resume on the instance exactly
    /// as given, whatever [`CalcOptions::reduce`] says now.
    pub fn resume(
        &self,
        net: &Network,
        demand: FlowDemand,
        checkpoint: &Checkpoint,
    ) -> Result<Outcome, ReliabilityError> {
        let fp = instance_fingerprint(net, &demand, &self.options);
        if checkpoint.fingerprint != fp {
            return Err(ReliabilityError::CheckpointMismatch {
                reason: format!(
                    "checkpoint fingerprint {:016x} does not match this instance ({fp:016x}); \
                     the network, demand, or enumeration options changed",
                    checkpoint.fingerprint
                ),
            });
        }
        // Pin `reduce` to what the checkpoint recorded: the plan shape is
        // re-derived below (per-side reduction included), so a `--no-reduce`
        // flip between write and resume must not change the derivation.
        let pinned = |reduce: bool| ReliabilityCalculator {
            strategy: self.strategy.clone(),
            options: CalcOptions {
                reduce,
                ..self.options.clone()
            },
        };
        let Some(shape) = checkpoint.reduce_shape else {
            return pinned(false).resume_kind(net, demand, checkpoint);
        };
        let red = reduce(net, demand, true, self.options.solver);
        let got = instance_fingerprint(&red.net, &red.demand, &self.options);
        if got != shape {
            return Err(ReliabilityError::CheckpointMismatch {
                reason: format!(
                    "checkpoint was written against reduced shape {shape:016x}, but the \
                     reduction now yields {got:016x}; the instance or pipeline changed"
                ),
            });
        }
        let mut out = pinned(true).resume_kind(&red.net, red.demand, checkpoint)?;
        match &mut out {
            Outcome::Complete(rep) => rep.algorithm = reduced_name(rep.algorithm),
            Outcome::Partial(p) => {
                p.algorithm = reduced_name(p.algorithm);
                p.checkpoint.fingerprint = fp;
                p.checkpoint.reduce_shape = Some(shape);
            }
        }
        Ok(out)
    }

    /// Dispatches a resume on the instance the checkpoint's cursors index
    /// (the reduced instance when a shape was recorded).
    fn resume_kind(
        &self,
        net: &Network,
        demand: FlowDemand,
        checkpoint: &Checkpoint,
    ) -> Result<Outcome, ReliabilityError> {
        // a multi-state checkpoint records the digit radices of the instance
        // its cursors index; they must match what this instance expands to
        // (and an all-binary checkpoint must resume on an all-binary net)
        let expected = net_radices(net);
        if checkpoint.radices != expected {
            return Err(ReliabilityError::CheckpointMismatch {
                reason: format!(
                    "checkpoint state-space radices {:?} do not match this instance's {:?}",
                    checkpoint.radices, expected
                ),
            });
        }
        match &checkpoint.kind {
            CheckpointKind::Naive(ck) => self.sweep_outcome(net, demand, "naive", false, Some(ck)),
            // Flat one-level decomposition checkpoints from before the
            // recursive planner: the side cursors are the state of the one
            // `Cut` slot of the depth-0 plan on the same cut, which is
            // re-derived and resumed like any plan checkpoint.
            CheckpointKind::Bottleneck {
                cut,
                side_s,
                side_t,
            } => {
                let set = validate_bottleneck_set(net, demand.source, demand.sink, cut)?;
                let opts = CalcOptions {
                    max_depth: 0,
                    hybrid: false,
                    ..self.options.clone()
                };
                let plan =
                    DecompositionPlan::plan_on_set(net, demand, &set, &opts, PLAN_RECURSE_K)?;
                let ck = PlanCheckpoint {
                    root_cut: set.edges.clone(),
                    root_max_k: PLAN_RECURSE_K,
                    max_depth: 0,
                    recursive_cut_sides: opts.recursive_cut_sides,
                    hybrid: false,
                    shape: plan.shape(),
                    shares: Vec::new(),
                    leaves: vec![PlanLeafState::Cut {
                        side_s: Box::new(side_s.clone()),
                        side_t: Box::new(side_t.clone()),
                    }],
                };
                self.execute_plan(net, demand, &plan, "bottleneck", &opts, Some(&ck))
            }
            CheckpointKind::Plan(ck) => {
                let set = validate_bottleneck_set(net, demand.source, demand.sink, &ck.root_cut)?;
                // The plan tree is not serialized: it is re-derived here from
                // the checkpoint's planning inputs, and `execute` verifies the
                // re-derived tree's shape fingerprint against the checkpoint.
                let opts = CalcOptions {
                    max_depth: ck.max_depth,
                    recursive_cut_sides: ck.recursive_cut_sides,
                    // pinned from the checkpoint, like the planner knobs: a
                    // legacy MC-free checkpoint resumes bit-identically
                    // whether the resuming process has --hybrid on or off
                    hybrid: ck.hybrid,
                    ..self.options.clone()
                };
                self.plan_outcome_with(
                    net,
                    demand,
                    &set,
                    ck.root_max_k,
                    "bottleneck",
                    &opts,
                    Some(ck),
                )
            }
            CheckpointKind::Factoring(ck) => {
                self.sweep_outcome(net, demand, "factoring", true, Some(ck))
            }
            CheckpointKind::MonteCarlo(ck) => {
                let out = montecarlo::engine::resume(
                    net,
                    demand.source,
                    demand.sink,
                    demand.demand,
                    ck,
                    &self.mc_budget(),
                    self.options.parallel,
                )?;
                self.wrap_mc_outcome(net, demand, out)
            }
        }
    }

    /// Plans a recursive decomposition rooted at `set` and executes it under
    /// the calculator's options.
    fn plan_outcome(
        &self,
        net: &Network,
        demand: FlowDemand,
        set: &BottleneckSet,
        max_k: usize,
        algorithm: &'static str,
        resume: Option<&PlanCheckpoint>,
    ) -> Result<Outcome, ReliabilityError> {
        self.plan_outcome_with(net, demand, set, max_k, algorithm, &self.options, resume)
    }

    /// As [`Self::plan_outcome`], with explicit options (resume overrides
    /// `max_depth` with the checkpoint's planning depth so the re-derived
    /// tree matches).
    #[allow(clippy::too_many_arguments)]
    fn plan_outcome_with(
        &self,
        net: &Network,
        demand: FlowDemand,
        set: &BottleneckSet,
        max_k: usize,
        algorithm: &'static str,
        opts: &CalcOptions,
        resume: Option<&PlanCheckpoint>,
    ) -> Result<Outcome, ReliabilityError> {
        let plan = DecompositionPlan::plan_on_set(net, demand, set, opts, max_k)?;
        self.execute_plan(net, demand, &plan, algorithm, opts, resume)
    }

    /// Executes a decomposition plan and wraps its outcome.
    fn execute_plan(
        &self,
        net: &Network,
        demand: FlowDemand,
        plan: &DecompositionPlan,
        algorithm: &'static str,
        opts: &CalcOptions,
        resume: Option<&PlanCheckpoint>,
    ) -> Result<Outcome, ReliabilityError> {
        match plan.execute(opts, resume)? {
            PlanOutcome::Complete {
                reliability,
                r_low,
                r_high,
                certified,
                stats,
                slots,
            } => Ok(Outcome::Complete(Box::new(ReliabilityReport {
                reliability,
                certified,
                interval: (r_low, r_high),
                algorithm,
                bottleneck: Some(plan.report(net, stats, slots)),
                mc: None,
            }))),
            PlanOutcome::Partial {
                r_low,
                r_high,
                certified,
                explored,
                checkpoint,
                stats,
                slots,
            } => Ok(Outcome::Partial(Box::new(PartialReport {
                r_low,
                r_high,
                certified,
                explored,
                algorithm,
                bottleneck: Some(plan.report(net, stats, slots)),
                mc: None,
                checkpoint: Checkpoint {
                    fingerprint: instance_fingerprint(net, &demand, &self.options),
                    reduce_shape: None,
                    radices: net_radices(net),
                    kind: CheckpointKind::Plan(checkpoint),
                },
            }))),
        }
    }

    /// Runs the budgeted naive sweep, or with `factoring` the factoring walk,
    /// and wraps its outcome.
    fn sweep_outcome(
        &self,
        net: &Network,
        demand: FlowDemand,
        algorithm: &'static str,
        factoring: bool,
        resume: Option<&NaiveCheckpoint>,
    ) -> Result<Outcome, ReliabilityError> {
        let out = if factoring {
            reliability_factoring_anytime(net, demand, &self.options, resume)?
        } else {
            reliability_naive_anytime(net, demand, &self.options, resume)?
        };
        match out {
            NaiveOutcome::Complete { reliability, .. } => {
                Ok(Outcome::Complete(Box::new(ReliabilityReport {
                    reliability,
                    certified: true,
                    interval: (reliability, reliability),
                    algorithm,
                    bottleneck: None,
                    mc: None,
                })))
            }
            NaiveOutcome::Partial {
                r_low,
                r_high,
                explored,
                checkpoint,
                ..
            } => Ok(Outcome::Partial(Box::new(PartialReport {
                r_low,
                r_high,
                certified: true,
                explored,
                algorithm,
                bottleneck: None,
                mc: None,
                checkpoint: Checkpoint {
                    fingerprint: instance_fingerprint(net, &demand, &self.options),
                    reduce_shape: None,
                    radices: net_radices(net),
                    kind: if factoring {
                        CheckpointKind::Factoring(checkpoint)
                    } else {
                        CheckpointKind::Naive(checkpoint)
                    },
                },
            }))),
        }
    }

    /// Bridges the exact engine's [`crate::budget::Budget`] into the
    /// sampler's [`montecarlo::McBudget`]: the deadline carries over, the
    /// configuration allowance becomes a sample allowance, and the cancel
    /// token is shared (one Ctrl-C stops either engine).
    fn mc_budget(&self) -> montecarlo::McBudget {
        let b = &self.options.budget;
        montecarlo::McBudget {
            time_limit: b.time_limit,
            max_samples: b.max_configs,
            cancel: b.cancel.as_ref().map(|t| t.as_flag()),
        }
    }

    /// Resolves [`montecarlo::EstimatorKind::Auto`] to a concrete estimator
    /// *before* the engine runs, so the settings stored in a checkpoint are
    /// always concrete and resume cannot re-resolve differently.
    fn resolve_mc_settings(
        &self,
        net: &Network,
        demand: FlowDemand,
        settings: &montecarlo::McSettings,
    ) -> montecarlo::McSettings {
        let mut resolved = settings.clone();
        if resolved.estimator == montecarlo::EstimatorKind::Auto {
            if net.has_multistate() {
                // dagger conditioning enumerates binary strata states; the
                // permutation estimator generalizes to the capacity-ordered
                // destruction process, so it is the multi-state default
                resolved.estimator = montecarlo::EstimatorKind::Permutation;
                return resolved;
            }
            match find_bottleneck_set(net, demand.source, demand.sink, 3) {
                Ok(set) if set.edges.len() <= montecarlo::MAX_STRATA_LINKS => {
                    resolved.estimator = montecarlo::EstimatorKind::Dagger;
                    resolved.strata = set.edges;
                }
                _ => {
                    resolved.estimator = montecarlo::EstimatorKind::Permutation;
                }
            }
        }
        resolved
    }

    /// Runs the Monte-Carlo engine and wraps its outcome.
    fn montecarlo_outcome(
        &self,
        net: &Network,
        demand: FlowDemand,
        settings: &montecarlo::McSettings,
    ) -> Result<Outcome, ReliabilityError> {
        let resolved = self.resolve_mc_settings(net, demand, settings);
        let out = montecarlo::engine::run(
            net,
            demand.source,
            demand.sink,
            demand.demand,
            &resolved,
            &self.mc_budget(),
            self.options.parallel,
        )?;
        self.wrap_mc_outcome(net, demand, out)
    }

    /// Wraps a Monte-Carlo outcome into the calculator's report types.
    fn wrap_mc_outcome(
        &self,
        net: &Network,
        demand: FlowDemand,
        out: montecarlo::McOutcome,
    ) -> Result<Outcome, ReliabilityError> {
        fn mc_algorithm(estimator: &str) -> &'static str {
            match estimator {
                "dagger" => "montecarlo:dagger",
                "perm" => "montecarlo:perm",
                _ => "montecarlo:crude",
            }
        }
        match out {
            montecarlo::McOutcome::Done(report) => {
                Ok(Outcome::Complete(Box::new(ReliabilityReport {
                    reliability: report.mean,
                    certified: report.exact,
                    interval: (report.ci_low, report.ci_high),
                    algorithm: mc_algorithm(report.estimator),
                    bottleneck: None,
                    mc: Some(report),
                })))
            }
            montecarlo::McOutcome::Interrupted { report, checkpoint } => {
                let cap = checkpoint.settings.target.max_samples.max(1) as f64;
                Ok(Outcome::Partial(Box::new(PartialReport {
                    r_low: report.ci_low,
                    r_high: report.ci_high,
                    certified: false,
                    explored: (report.samples as f64 / cap).min(1.0),
                    algorithm: mc_algorithm(report.estimator),
                    bottleneck: None,
                    mc: Some(report),
                    checkpoint: Checkpoint {
                        fingerprint: instance_fingerprint(net, &demand, &self.options),
                        reduce_shape: None,
                        radices: net_radices(net),
                        kind: CheckpointKind::MonteCarlo(checkpoint),
                    },
                })))
            }
        }
    }

    /// Auto strategy: decompose recursively along a bottleneck when one
    /// exists and the split pays off; otherwise factor (or, under a budget,
    /// run the interruptible naive sweep, whose checkpoints carry the
    /// uniform explored metric); fall back to naive only when factoring's
    /// (looser) edge bound also trips.
    fn run_auto(&self, net: &Network, demand: FlowDemand) -> Result<Outcome, ReliabilityError> {
        if let Ok(set) = find_bottleneck_set(net, demand.source, demand.sink, 3) {
            let worth_it = set.side_s_edges.max(set.side_t_edges) + 2 < net.edge_count();
            if worth_it {
                match self.plan_outcome(net, demand, &set, PLAN_RECURSE_K, "auto:bottleneck", None)
                {
                    Ok(out) => return Ok(out),
                    Err(
                        ReliabilityError::TooManyAssignments { .. }
                        | ReliabilityError::SideTooLarge { .. }
                        | ReliabilityError::TooManyEdges { .. },
                    ) => { /* fall through */ }
                    Err(e) => return Err(e),
                }
            }
        }
        if !self.options.budget.is_unlimited() || net.has_multistate() {
            // factoring is binary-only, so multi-state instances fall back to
            // the (mixed-radix) naive sweep instead
            return self.sweep_outcome(net, demand, "auto:naive", false, None);
        }
        self.sweep_outcome(net, demand, "auto:factoring", true, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{GraphKind, NetworkBuilder};

    fn barbell() -> (Network, FlowDemand) {
        // triangle - 1 link - triangle
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.1).unwrap();
        b.add_edge(n[2], n[0], 1, 0.1).unwrap();
        b.add_edge(n[2], n[3], 2, 0.1).unwrap();
        b.add_edge(n[3], n[4], 1, 0.1).unwrap();
        b.add_edge(n[4], n[5], 1, 0.1).unwrap();
        b.add_edge(n[5], n[3], 1, 0.1).unwrap();
        (b.build(), FlowDemand::new(n[0], n[5], 1))
    }

    #[test]
    fn all_strategies_agree() {
        let (net, d) = barbell();
        let strategies = [
            Strategy::Naive,
            Strategy::Factoring,
            Strategy::Bottleneck(vec![EdgeId(3)]),
            Strategy::BottleneckAuto { max_k: 2 },
            Strategy::Auto,
        ];
        let reference = ReliabilityCalculator::new()
            .with_strategy(Strategy::Naive)
            .run_complete(&net, d)
            .unwrap()
            .reliability;
        for s in strategies {
            let rep = ReliabilityCalculator::new()
                .with_strategy(s.clone())
                .run_complete(&net, d)
                .unwrap();
            assert!(
                (rep.reliability - reference).abs() < 1e-12,
                "{s:?} gave {} vs {reference}",
                rep.reliability
            );
        }
    }

    #[test]
    fn auto_uses_bottleneck_on_barbell() {
        let (net, d) = barbell();
        let rep = ReliabilityCalculator::new().run_complete(&net, d).unwrap();
        // the barbell's overprovisioned bridge gets clamped by reduction,
        // so the auto strategy reports sweeping the reduced instance
        assert_eq!(rep.algorithm, "reduce+auto:bottleneck");
        let b = rep.bottleneck.expect("decomposition report");
        assert_eq!(b.set.edges, vec![EdgeId(3)]);
    }

    /// K_n with every link at capacity 1 and failure probability `p`,
    /// demand 1 between the first and the last node.
    fn complete_graph(n: usize, p: f64) -> (Network, FlowDemand) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let ids = b.add_nodes(n);
        for i in 0..n {
            for j in i + 1..n {
                b.add_edge(ids[i], ids[j], 1, p).unwrap();
            }
        }
        (b.build(), FlowDemand::new(ids[0], ids[n - 1], 1))
    }

    #[test]
    fn auto_falls_back_on_dense_graph() {
        // K5 is 4-edge-connected: no bottleneck set with k <= 3 exists
        let (net, d) = complete_graph(5, 0.2);
        let rep = ReliabilityCalculator::new().run_complete(&net, d).unwrap();
        assert_eq!(rep.algorithm, "auto:factoring");
        assert!(rep.bottleneck.is_none());
    }

    #[test]
    fn auto_uses_star_cut_on_k4() {
        // K4 does have a k = 3 bottleneck: the three links incident to t
        let (net, d) = complete_graph(4, 0.2);
        let rep = ReliabilityCalculator::new().run_complete(&net, d).unwrap();
        assert_eq!(rep.algorithm, "auto:bottleneck");
        let naive = ReliabilityCalculator::new()
            .with_strategy(Strategy::Naive)
            .run_complete(&net, d)
            .unwrap();
        assert!((rep.reliability - naive.reliability).abs() < 1e-12);
    }

    #[test]
    fn budgeted_run_yields_partial_and_resume_finishes() {
        let (barbell, barbell_d) = barbell();
        let (k6, k6_d) = complete_graph(6, 0.2);
        // factoring narrows its interval only once a block closes or a leaf
        // configuration is found feasible; K6 keeps the 8 checks a run it
        // had as 8 conditioning frames, and narrows in its first run
        for (strategy, net, d, max_configs) in [
            (Strategy::Naive, &barbell, barbell_d, 2),
            (
                Strategy::Bottleneck(vec![EdgeId(3)]),
                &barbell,
                barbell_d,
                2,
            ),
            (Strategy::Factoring, &k6, k6_d, 8),
        ] {
            let exact = ReliabilityCalculator::new()
                .with_strategy(strategy.clone())
                .run_complete(net, d)
                .unwrap()
                .reliability;
            let budgeted = ReliabilityCalculator {
                strategy: strategy.clone(),
                options: CalcOptions {
                    budget: crate::budget::Budget {
                        max_configs: Some(max_configs),
                        ..Default::default()
                    },
                    ..Default::default()
                },
            };
            let mut out = budgeted.run(net, d).unwrap();
            let mut partials = 0usize;
            let r = loop {
                match out {
                    Outcome::Complete(rep) => break rep.reliability,
                    Outcome::Partial(p) => {
                        assert!(
                            p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                            "{strategy:?}: [{}, {}] must bracket {exact}",
                            p.r_low,
                            p.r_high
                        );
                        assert!(p.r_high - p.r_low < 1.0 || partials == 0);
                        partials += 1;
                        assert!(partials < 10_000, "resume loop must make progress");
                        out = budgeted.resume(net, d, &p.checkpoint).unwrap();
                    }
                }
            };
            assert!(
                partials > 0,
                "{strategy:?}: a {max_configs}-config budget must interrupt"
            );
            assert_eq!(
                r, exact,
                "{strategy:?}: serial resume must be bit-identical"
            );
        }
    }

    #[test]
    fn unbudgeted_factoring_beyond_the_link_mask_is_an_error() {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(66);
        for i in 0..65 {
            b.add_edge(n[i], n[i + 1], 1, 0.01).unwrap();
        }
        let net = b.build();
        let out = ReliabilityCalculator::new()
            .with_strategy(Strategy::Factoring)
            .run(&net, FlowDemand::new(n[0], n[65], 1));
        assert!(
            matches!(
                out,
                Err(ReliabilityError::EdgeMaskOverflow { count: 65, .. })
            ),
            "{out:?}"
        );
    }

    #[test]
    fn reduced_checkpoint_round_trips_and_resumes_bit_identically() {
        // the barbell reduces (its cap-2 bridge clamps to the demand), so a
        // budgeted run writes a reduce-shape stamped checkpoint
        let (net, d) = barbell();
        let exact = ReliabilityCalculator::new()
            .with_strategy(Strategy::Naive)
            .run_complete(&net, d)
            .unwrap()
            .reliability;
        let budgeted = ReliabilityCalculator {
            strategy: Strategy::Naive,
            options: CalcOptions {
                budget: crate::budget::Budget {
                    max_configs: Some(16),
                    ..Default::default()
                },
                ..Default::default()
            },
        };
        let Outcome::Partial(p) = budgeted.run(&net, d).unwrap() else {
            panic!("a 16-config budget must interrupt the barbell sweep");
        };
        assert!(p.checkpoint.reduce_shape.is_some());
        assert_eq!(p.algorithm, "reduce+naive");
        let text = p.checkpoint.to_text();
        assert!(text.contains("reduce-shape"));
        let parsed = Checkpoint::from_text(&text).unwrap();
        let resumed = ReliabilityCalculator::new()
            .resume(&net, d, &parsed)
            .unwrap();
        let Outcome::Complete(rep) = resumed else {
            panic!("an unlimited resume must finish");
        };
        assert_eq!(rep.reliability, exact, "resume must be bit-identical");
        assert_eq!(rep.algorithm, "reduce+naive");
        // turning reduction off on resume is irrelevant: the shape line wins
        let no_reduce = ReliabilityCalculator {
            strategy: Strategy::Naive,
            options: CalcOptions {
                reduce: false,
                ..Default::default()
            },
        };
        let Outcome::Complete(rep2) = no_reduce.resume(&net, d, &parsed).unwrap() else {
            panic!("resume must finish");
        };
        assert_eq!(rep2.reliability, exact);
    }

    #[test]
    fn no_reduce_option_sweeps_the_original_instance() {
        let (net, d) = barbell();
        let rep = ReliabilityCalculator {
            strategy: Strategy::Naive,
            options: CalcOptions {
                reduce: false,
                ..Default::default()
            },
        }
        .run_complete(&net, d)
        .unwrap();
        assert_eq!(rep.algorithm, "naive");
        let reduced = ReliabilityCalculator::new()
            .with_strategy(Strategy::Naive)
            .run_complete(&net, d)
            .unwrap();
        assert_eq!(reduced.algorithm, "reduce+naive");
        assert!((rep.reliability - reduced.reliability).abs() < 1e-12);
    }

    #[test]
    fn resume_rejects_a_different_instance() {
        let (net, d) = barbell();
        let budgeted = ReliabilityCalculator {
            strategy: Strategy::Naive,
            options: CalcOptions {
                budget: crate::budget::Budget {
                    max_configs: Some(2),
                    ..Default::default()
                },
                ..Default::default()
            },
        };
        let out = budgeted.run(&net, d).unwrap();
        let Outcome::Partial(p) = out else {
            panic!("2-config budget must interrupt the barbell sweep");
        };
        // same topology, one failure probability nudged
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 1, 0.11).unwrap();
        b.add_edge(n[1], n[2], 1, 0.1).unwrap();
        b.add_edge(n[2], n[0], 1, 0.1).unwrap();
        b.add_edge(n[2], n[3], 2, 0.1).unwrap();
        b.add_edge(n[3], n[4], 1, 0.1).unwrap();
        b.add_edge(n[4], n[5], 1, 0.1).unwrap();
        b.add_edge(n[5], n[3], 1, 0.1).unwrap();
        let other = b.build();
        assert!(matches!(
            budgeted.resume(&other, d, &p.checkpoint),
            Err(ReliabilityError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn cancel_token_interrupts_immediately() {
        let (net, d) = barbell();
        let cancel = crate::budget::CancelToken::new();
        cancel.trip();
        let calc = ReliabilityCalculator {
            strategy: Strategy::Naive,
            options: CalcOptions {
                budget: crate::budget::Budget {
                    cancel: Some(cancel),
                    ..Default::default()
                },
                ..Default::default()
            },
        };
        match calc.run(&net, d).unwrap() {
            Outcome::Partial(p) => {
                assert_eq!(p.explored, 0.0);
                assert_eq!((p.r_low, p.r_high), (0.0, 1.0));
            }
            Outcome::Complete(_) => panic!("a tripped token must stop the sweep"),
        }
    }

    #[test]
    fn montecarlo_strategy_covers_the_exact_value() {
        let (net, d) = barbell();
        let exact = ReliabilityCalculator::new()
            .with_strategy(Strategy::Naive)
            .run_complete(&net, d)
            .unwrap()
            .reliability;
        for estimator in [
            montecarlo::EstimatorKind::Auto,
            montecarlo::EstimatorKind::Crude,
            montecarlo::EstimatorKind::Permutation,
        ] {
            let settings = montecarlo::McSettings {
                seed: 7,
                estimator,
                target: montecarlo::StopTarget {
                    max_samples: 40_000,
                    ..Default::default()
                },
                ..Default::default()
            };
            let rep = ReliabilityCalculator::new()
                .with_strategy(Strategy::MonteCarlo(settings))
                .run_complete(&net, d)
                .unwrap();
            let mc = rep.mc.expect("Monte-Carlo strategies attach a report");
            assert!(rep.algorithm.contains("montecarlo:"), "{}", rep.algorithm);
            assert_eq!(rep.reliability, mc.mean);
            assert!(
                (mc.mean - exact).abs() <= 4.0 * mc.std_error.max(1e-12),
                "{estimator:?}: {} vs exact {exact} (se {})",
                mc.mean,
                mc.std_error
            );
        }
    }

    #[test]
    fn montecarlo_auto_conditions_on_the_barbell_bottleneck() {
        let (net, d) = barbell();
        let rep = ReliabilityCalculator::new()
            .with_strategy(Strategy::MonteCarlo(montecarlo::McSettings {
                estimator: montecarlo::EstimatorKind::Auto,
                ..Default::default()
            }))
            .run_complete(&net, d)
            .unwrap();
        assert_eq!(rep.algorithm, "reduce+montecarlo:dagger");
    }

    #[test]
    fn montecarlo_budget_interrupts_and_text_resume_is_bit_identical() {
        let (net, d) = barbell();
        let settings = montecarlo::McSettings {
            seed: 11,
            estimator: montecarlo::EstimatorKind::Crude,
            target: montecarlo::StopTarget {
                max_samples: 30_000,
                ..Default::default()
            },
            batch: 1024,
            ..Default::default()
        };
        let full = ReliabilityCalculator::new()
            .with_strategy(Strategy::MonteCarlo(settings.clone()))
            .run_complete(&net, d)
            .unwrap();
        let budgeted = ReliabilityCalculator {
            strategy: Strategy::MonteCarlo(settings),
            options: CalcOptions {
                budget: crate::budget::Budget {
                    max_configs: Some(10_000),
                    ..Default::default()
                },
                ..Default::default()
            },
        };
        let Outcome::Partial(p) = budgeted.run(&net, d).unwrap() else {
            panic!("a 10k-sample allowance must interrupt a 30k-sample run");
        };
        let mc = p.mc.as_ref().expect("partial MC report");
        assert!(mc.samples > 0 && mc.samples < 30_000);
        assert!(p.explored > 0.0 && p.explored < 1.0);
        assert_eq!((p.r_low, p.r_high), (mc.ci_low, mc.ci_high));
        // serialize, parse back, resume without a budget: must reproduce the
        // uninterrupted run bit for bit
        let text = p.checkpoint.to_text();
        let parsed = Checkpoint::from_text(&text).unwrap();
        let resumed = ReliabilityCalculator {
            strategy: Strategy::MonteCarlo(montecarlo::McSettings::default()),
            options: CalcOptions::default(),
        }
        .resume(&net, d, &parsed)
        .unwrap();
        let Outcome::Complete(rep) = resumed else {
            panic!("an unlimited resume must finish");
        };
        assert_eq!(rep.mc.unwrap(), full.mc.unwrap());
        assert_eq!(rep.reliability, full.reliability);
    }

    #[test]
    fn montecarlo_rejects_bad_settings_as_sampling_errors() {
        let (net, d) = barbell();
        let out = ReliabilityCalculator::new()
            .with_strategy(Strategy::MonteCarlo(montecarlo::McSettings {
                estimator: montecarlo::EstimatorKind::Crude,
                target: montecarlo::StopTarget {
                    rel_err: Some(-0.1),
                    ..Default::default()
                },
                ..Default::default()
            }))
            .run(&net, d);
        assert!(matches!(out, Err(ReliabilityError::Sampling { .. })));
    }

    #[test]
    fn explicit_bottleneck_reports_geometry() {
        let (net, d) = barbell();
        let rep = ReliabilityCalculator::new()
            .with_strategy(Strategy::Bottleneck(vec![EdgeId(3)]))
            .run_complete(&net, d)
            .unwrap();
        let b = rep.bottleneck.unwrap();
        assert_eq!(b.set.k(), 1);
        assert_eq!(b.assignment_count, 1);
    }

    /// Chain of diamonds connected by bridges.
    fn diamond_chain(segments: usize) -> (Network, FlowDemand) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let mut prev = b.add_node();
        let source = prev;
        for i in 0..segments {
            let a = b.add_node();
            let c = b.add_node();
            let d = b.add_node();
            b.add_edge(prev, a, 1, 0.1).unwrap();
            b.add_edge(prev, c, 1, 0.2).unwrap();
            b.add_edge(a, d, 1, 0.15).unwrap();
            b.add_edge(c, d, 1, 0.25).unwrap();
            if i + 1 < segments {
                let next = b.add_node();
                b.add_edge(d, next, 1, 0.05).unwrap(); // bridge
                prev = next;
            } else {
                prev = d;
            }
        }
        let sink = prev;
        (b.build(), FlowDemand::new(source, sink, 1))
    }

    /// Eq. 1's bridge split: the bottleneck plan restricted to `k = 1`.
    fn bridge_split(net: &Network, d: FlowDemand) -> Result<Outcome, ReliabilityError> {
        ReliabilityCalculator::new()
            .with_strategy(Strategy::BottleneckAuto { max_k: 1 })
            .run(net, d)
    }

    fn naive(net: &Network, d: FlowDemand) -> Result<Outcome, ReliabilityError> {
        ReliabilityCalculator::new()
            .with_strategy(Strategy::Naive)
            .run(net, d)
    }

    #[test]
    fn bridge_split_needs_a_bridge() {
        // one diamond has no bridge: the k = 1 plan has nothing to split on,
        // while the auto strategy still answers
        let (net, d) = diamond_chain(1);
        assert!(matches!(
            bridge_split(&net, d),
            Err(ReliabilityError::NoBottleneckFound)
        ));
        let auto = ReliabilityCalculator::new().run(&net, d).unwrap();
        let naive = naive(&net, d).unwrap();
        assert!((auto.reliability().unwrap() - naive.reliability().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn bridge_split_matches_naive_on_chains() {
        for segments in 2..=3 {
            let (net, d) = diamond_chain(segments);
            let naive = naive(&net, d).unwrap().reliability().unwrap();
            let split = bridge_split(&net, d).unwrap().reliability().unwrap();
            assert!(
                (naive - split).abs() < 1e-12,
                "segments={segments}: {naive} vs {split}"
            );
        }
    }

    #[test]
    fn bridge_split_scales_past_naive_limits() {
        // 8 segments: 8*4 + 7 = 39 links — naive refuses at default bounds,
        // the k = 1 plan sweeps each 4-link segment alone
        let (net, d) = diamond_chain(8);
        assert!(matches!(
            naive(&net, d),
            Err(ReliabilityError::TooManyEdges { .. })
        ));
        let r = bridge_split(&net, d).unwrap().reliability().unwrap();
        // per segment: both paths fail: (1-0.9*0.85)(1-0.8*0.75) each
        let seg: f64 = 1.0 - (1.0 - 0.9 * 0.85) * (1.0 - 0.8 * 0.75);
        let expected = seg.powi(8) * 0.95f64.powi(7);
        assert!((r - expected).abs() < 1e-9, "{r} vs {expected}");
    }

    #[test]
    fn bridge_capacity_below_demand_gives_zero() {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        let net = b.build();
        let r = bridge_split(&net, FlowDemand::new(n[0], n[1], 2))
            .unwrap()
            .reliability();
        assert_eq!(r, Some(0.0));
    }

    #[test]
    fn bridge_split_matches_the_exact_rational_reference() {
        let (net, d) = diamond_chain(2);
        let f = bridge_split(&net, d).unwrap().reliability().unwrap();
        let e = crate::naive::reliability_naive_exact(&net, d, &CalcOptions::default()).unwrap();
        assert!((f - e.to_f64()).abs() < 1e-12);
    }
}
