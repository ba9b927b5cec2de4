//! Recursive decomposition planner and plan interpreter.
//!
//! The paper's Eq. 1 bridge split and the Section III–IV bottleneck
//! decomposition are both *one-level* rewrites. This module generalizes them
//! into a [`DecompositionPlan`]: a tree whose internal nodes are combinators
//! and whose leaves are atomic subnetworks swept by the existing engines.
//!
//! Node kinds and their interval-combination rules (every child evaluates to
//! a certified interval `[lo, hi]` around its exact reliability):
//!
//! - [`PlanNode::Const`] — a value decided at plan time (zero demand,
//!   infeasible demand, empty assignment set): `[v, v]`.
//! - [`PlanNode::Preprocess`] — relevance reduction removed dead links; the
//!   child is computed on the reduced network and the interval passes
//!   through unchanged (the reduction is exact).
//! - [`PlanNode::SpReduce`] — series-parallel reduction for unit demand on
//!   undirected networks; exact, so the interval passes through unchanged.
//! - [`PlanNode::Bridge`] — a cut whose assignment set is a single
//!   all-nonnegative assignment `x`. Flow conservation forces *exactly*
//!   `x_i` across cut link `i`, so the sides are independent given the cut
//!   links with `x_i ≠ 0` alive (Eq. 1 generalized to `k ≥ 1`):
//!   `[up·lo_L·lo_R, up·hi_L·hi_R]` with `up = Π_{x_i≠0} (1 − p(e_i))`.
//! - [`PlanNode::Cut`] — a general bottleneck split whose two sides are
//!   swept whole as one leaf slot (both side sweeps draw from the slot's
//!   sentinel) and combined by the same ACCUMULATION step as a `DeepCut`.
//! - [`PlanNode::DeepCut`] — a general bottleneck split whose sides are
//!   themselves decomposed ([`SidePlan`]): each side is either swept whole
//!   or *peeled* at an internal cut that separates the side's terminal from
//!   every attach point with a unique all-nonnegative crossing `x'`. The
//!   peel factors the side spectrum exactly: with `P(A)` the probability
//!   the terminal part delivers `x'` across the peel cut, `up` the survival
//!   of the peel-cut links `x'` uses, and `B[r]` the residual part's
//!   spectrum, `S[r] = up·P(A)·B[r]` for `r ≠ 0` and
//!   `S[0] = 1 − up·P(A)·(1 − B[0])`. Under partial execution `P(A)` is an
//!   interval `[a_lo, a_hi]` and `B` a pointwise underestimate, so the
//!   transformed mass stays a pointwise underestimate of the true spectrum
//!   and the cut-level interval combination remains certified.
//! - [`PlanNode::Leaf`] — an atomic subnetwork swept by the budgeted naive
//!   engine, which produces its own certified interval.
//!
//! The interpreter ([`DecompositionPlan::execute`]) apportions the budget
//! hierarchically: at every fork (the two sides of a `Bridge` or `DeepCut`,
//! or a peel's scalar/residual pair) the parent sentinel's whole remaining
//! allowance is split into per-subtree [`BudgetSentinel`] children
//! proportional to each subtree's *remaining* predicted cost (resume-aware,
//! so finished subtrees get nothing). A subtree that finishes early releases
//! its unspent allowance back to the fork, where the sibling's grants pick
//! it up — no global atomic sits on the hot path. Each subtree returns
//! *owned* leaf slots that are concatenated in DFS order, so the parallel
//! path (rayon join at every fork) shares no mutable state at all.
//!
//! When the budget runs out the interpreter returns a
//! [`PlanOutcome::Partial`] whose [`PlanCheckpoint`] records each leaf
//! slot's resume state in DFS order (plus the informational per-slot budget
//! shares). The plan tree itself is *not* serialized: planning is
//! deterministic, so resume re-derives it and verifies a shape fingerprint.
//! A serial interrupted run resumed to completion reproduces the
//! uninterrupted value bit for bit, because leaf execution order, per-leaf
//! sweeps (PR-2 semantics), budget apportionment, and the combination
//! arithmetic are all deterministic.
//!
//! # Hybrid exact/statistical leaves
//!
//! With [`CalcOptions::hybrid`] set, a *scalar* leaf (`Leaf` or flat `Cut`)
//! whose remaining predicted cost exceeds the configuration allowance its
//! subtree was apportioned is estimated by [`montecarlo::engine`] instead
//! of starting an exact sweep that cannot finish. The decision is made at
//! the leaf's entry against `sentinel.remaining()` — both fork children are
//! created *before* either side runs, so the share a leaf sees is the same
//! deterministic number serially and in parallel. Each sampled leaf derives
//! its own RNG stream ([`montecarlo::plan_leaf_seed`], keyed by the leaf's
//! DFS slot index) and resolves [`EstimatorKind::Auto`] against *its own*
//! subnetwork: dagger when that leaf has a strata-sized bottleneck,
//! permutation otherwise. Every node combine then propagates a `certified`
//! flag alongside the interval — the AND over all contributing leaves — so
//! the final answer is labelled *statistical* as soon as any leaf sampled.
//! Combined bounds are clamped to `[0, 1]` at every combine: statistical
//! child intervals (Wilson CIs) are not exact probabilities, so products
//! against `up` can stray outside the unit interval. Sides of a `DeepCut`
//! (sweeps and peel scalars) never sample: a statistical scalar folded
//! into a spectrum's mass vector would silently corrupt the certified
//! underestimate the peel transform relies on, so MC placement is disabled
//! (`allow_mc`) inside side evaluation.
//!
//! [`EstimatorKind::Auto`]: montecarlo::EstimatorKind::Auto

use netgraph::{EdgeId, EdgeMask, GraphKind, Network, NodeId};

use crate::accumulate::{combine, combine_interval, AccumulationMethod};
use crate::algorithm::{BottleneckReport, PlanSlotReport};
use crate::assign::{crossing_ranges, enumerate_assignments, Assignment, AssignmentModel};
use crate::bottleneck::{find_all_bottleneck_sets, find_bottleneck_set, BottleneckSet};
use crate::budget::BudgetSentinel;
use crate::checkpoint::{check_certs, Fnv1a, PlanCheckpoint, PlanLeafState, SideCheckpoint, SLACK};
use crate::decompose::{decompose, Side};
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::naive::{reliability_naive_anytime_on, NaiveOutcome};
use crate::options::{CalcOptions, MAX_ENUM_EDGES, MAX_SIDE_EDGES};
use crate::oracle::DemandOracle;
use crate::preprocess::relevance_reduce;
use crate::reduce::{reduce, ReduceStats};
use crate::spectrum::{check_assignments, check_cut_edges, check_side_edges, sweep_side, Split};
use crate::spreduce::{reduce_unit_demand, ReductionStats};
use crate::sweep::SweepStats;
use crate::weight::edge_weights;
use montecarlo::{McCheckpoint, McOutcome, McReport, McSettings};

/// A side smaller than this is always swept whole: a peel replaces the side
/// with a scalar subtree *plus* a residual side, so it cannot pay off below
/// a few links.
const PEEL_MIN_EDGES: usize = 4;

/// A leaf: an atomic subnetwork swept exhaustively by the naive engine.
#[derive(Clone, Debug)]
pub struct LeafNode {
    /// The subnetwork.
    pub net: Network,
    /// The demand inside the subnetwork.
    pub demand: FlowDemand,
    /// Fallible links the sweep enumerates — for a multi-state subnetwork,
    /// the number of mixed-radix state digits.
    pub fallible: usize,
    /// Predicted configurations: `2^fallible` for all-binary subnetworks,
    /// the product of the state radices for multi-state ones.
    pub configs: f64,
    /// DFS slot index into the plan checkpoint's leaf array.
    pub index: usize,
}

/// A general bottleneck split whose sides are swept whole, as one leaf slot.
#[derive(Clone, Debug)]
pub struct CutNode {
    /// The (sub)network the split applies to.
    pub net: Network,
    /// The demand inside that network.
    pub demand: FlowDemand,
    /// The validated bottleneck set.
    pub set: BottleneckSet,
    /// Number of feasible flow assignments across the cut (`|D|`).
    pub assignments: usize,
    /// DFS slot index into the plan checkpoint's leaf array.
    pub index: usize,
}

/// One side spectrum swept whole against the cut's assignment set.
#[derive(Clone, Debug)]
pub struct SweepNode {
    /// The side (its subnetwork, demand terminal, and attach points).
    pub side: Side,
    /// Number of assignments of the owning [`DeepCutNode`] (`|D|`).
    pub dn: usize,
    /// DFS slot index into the plan checkpoint's leaf array.
    pub index: usize,
}

/// How one side of a [`DeepCutNode`] is evaluated.
#[derive(Clone, Debug)]
pub enum SidePlan {
    /// Sweep the side whole with the side-spectrum engine.
    Sweep(Box<SweepNode>),
    /// Peel the side at an internal cut separating its terminal from every
    /// attach point with a unique all-nonnegative crossing `x'`:
    /// `S[r] = up·P(scalar)·B[r]` for `r ≠ 0`,
    /// `S[0] = 1 − up·P(scalar)·(1 − B[0])`.
    Peel {
        /// Survival probability of the peel-cut links `x'` uses.
        up: f64,
        /// Scalar subtree: probability the terminal part delivers `x'`.
        scalar: Box<PlanNode>,
        /// The residual side (original attach points, peel cut replaced by
        /// a perfect super-terminal), evaluated recursively.
        inner: Box<SidePlan>,
    },
}

/// A bottleneck split whose sides are recursively decomposed instead of
/// being swept whole.
#[derive(Clone, Debug)]
pub struct DeepCutNode {
    /// The validated bottleneck set of the parent network.
    pub set: BottleneckSet,
    /// The feasible flow assignments across the cut (`D`).
    pub assignments: Vec<Assignment>,
    /// `(alive, failed)` weight pairs of the cut links.
    pub cut_weights: Vec<(f64, f64)>,
    /// Per cut configuration, the mask of assignments it supports.
    pub support: Vec<u32>,
    /// Source-side evaluation.
    pub side_s: SidePlan,
    /// Sink-side evaluation.
    pub side_t: SidePlan,
}

/// One node of a [`DecompositionPlan`] tree.
#[derive(Clone, Debug)]
pub enum PlanNode {
    /// A value decided at plan time.
    Const {
        /// The exact reliability of this subtree.
        value: f64,
        /// Why the planner could decide it without sweeping.
        reason: &'static str,
    },
    /// An atomic subnetwork swept by the budgeted naive engine.
    Leaf(Box<LeafNode>),
    /// Relevance reduction removed links irrelevant to the demand; the
    /// child is planned on the reduced network (exact pass-through).
    Preprocess {
        /// Links removed by the reduction.
        removed: usize,
        /// The plan for the reduced network.
        child: Box<PlanNode>,
    },
    /// Series-parallel reduction for unit demand on an undirected network
    /// (exact pass-through).
    SpReduce {
        /// What the reduction collapsed.
        stats: ReductionStats,
        /// The plan for the reduced network.
        child: Box<PlanNode>,
    },
    /// Eq. 1 generalized: a cut with a single all-nonnegative assignment
    /// `x`. Conservation forces exactly `x_i` across link `i`, so
    /// `R = up · R_left · R_right` with `up = Π_{x_i≠0} (1 − p(e_i))`.
    Bridge {
        /// The cut links.
        cut: Vec<EdgeId>,
        /// Survival probability of the cut links the assignment uses.
        up: f64,
        /// Source-side subproblem (with a super-terminal absorbing `x`).
        left: Box<PlanNode>,
        /// Sink-side subproblem (with a super-terminal producing `x`).
        right: Box<PlanNode>,
    },
    /// A bottleneck split with more than one feasible assignment whose
    /// sides are swept whole, as one leaf slot.
    Cut(Box<CutNode>),
    /// A bottleneck split whose sides are recursively decomposed.
    DeepCut(Box<DeepCutNode>),
    /// Structural reduction ([`crate::reduce`]) rewrote this subproblem —
    /// capacity-factor pruning, perfect-link contraction, parallel-link
    /// merging — and the child is planned on the reduced instance. The
    /// reduction is value-exact, so the interval passes through unchanged.
    /// `origin` is the reconstruction map: `origin[i]` lists the original
    /// link ids that reduced link `i` stands for, so renders and per-leaf
    /// accounting can speak in the caller's ids.
    Reduce {
        /// What each pass of the reduction did.
        stats: ReduceStats,
        /// Reduced link id → original link ids it stands for.
        origin: Vec<Vec<EdgeId>>,
        /// The plan for the reduced instance.
        child: Box<PlanNode>,
    },
}

/// Result of executing a plan under a budget.
#[derive(Clone, Debug)]
pub enum PlanOutcome {
    /// The budget sufficed: every leaf ran to completion.
    Complete {
        /// The reliability: exact (up to compensated `f64` rounding) when
        /// `certified`, the combined Monte-Carlo point estimate otherwise.
        reliability: f64,
        /// Lower end of the combined interval (`reliability` when
        /// `certified`, the combined 95% confidence bound otherwise).
        r_low: f64,
        /// Upper end of the combined interval.
        r_high: f64,
        /// True when every contributing leaf ran exactly; false as soon as
        /// any leaf was estimated statistically (hybrid mode).
        certified: bool,
        /// Merged sweep-engine counters over all leaves.
        stats: SweepStats,
        /// Per-leaf-slot budget shares and cost accounting, in DFS order.
        slots: Vec<PlanSlotReport>,
    },
    /// The budget ran out; `[r_low, r_high]` is a rigorous interval (when
    /// `certified`) or a statistically-tainted one (hybrid mode).
    Partial {
        /// Lower bound (certified unless a sampled leaf contributed).
        r_low: f64,
        /// Upper bound (certified unless a sampled leaf contributed).
        r_high: f64,
        /// True when no contributing leaf was estimated statistically.
        certified: bool,
        /// Mean explored fraction over the plan's leaf slots.
        explored: f64,
        /// Resume state (leaf states in DFS order plus re-planning inputs).
        checkpoint: PlanCheckpoint,
        /// Merged sweep-engine counters for this slice of work.
        stats: SweepStats,
        /// Per-leaf-slot budget shares and cost accounting, in DFS order.
        slots: Vec<PlanSlotReport>,
    },
}

/// A decomposition plan: the tree, the root split it was built on, and the
/// planner knobs needed to re-derive it deterministically on resume.
#[derive(Clone, Debug)]
pub struct DecompositionPlan {
    root: PlanNode,
    root_set: BottleneckSet,
    root_assignments: usize,
    max_k: usize,
    max_depth: usize,
    recursive: bool,
    shape: u64,
    slots: usize,
}

fn mismatch(reason: impl Into<String>) -> ReliabilityError {
    ReliabilityError::CheckpointMismatch {
        reason: reason.into(),
    }
}

impl DecompositionPlan {
    /// Builds a plan whose root is a split on the given (already validated)
    /// bottleneck set; the sides are then decomposed recursively up to
    /// `opts.max_depth` nested splits, searching recursive cuts of up to
    /// `max_k` links.
    pub fn plan_on_set(
        net: &Network,
        demand: FlowDemand,
        set: &BottleneckSet,
        opts: &CalcOptions,
        max_k: usize,
    ) -> Result<DecompositionPlan, ReliabilityError> {
        demand.validate(net)?;
        let (mut root, root_assignments) = if demand.demand == 0 {
            (
                PlanNode::Const {
                    value: 1.0,
                    reason: "zero demand",
                },
                0,
            )
        } else {
            let ranges = crossing_ranges(
                net,
                &set.edges,
                &set.forward_oriented,
                demand.demand,
                opts.assignment_model,
            );
            let assignments = enumerate_assignments(demand.demand, &ranges);
            let count = assignments.len();
            let node = split_node(net, demand, set, assignments, opts.max_depth, opts, max_k)?;
            (node, count)
        };
        let mut slots = 0;
        number(&mut root, &mut slots);
        let mut h = Fnv1a::new();
        h.write(max_k as u64);
        h.write(opts.max_depth as u64);
        hash_node(&root, &mut h);
        Ok(DecompositionPlan {
            root,
            root_set: set.clone(),
            root_assignments,
            max_k,
            max_depth: opts.max_depth,
            recursive: opts.recursive_cut_sides,
            shape: h.finish(),
            slots,
        })
    }

    /// The root node, for inspection and rendering.
    pub fn root_node(&self) -> &PlanNode {
        &self.root
    }

    /// The root bottleneck set the plan splits on.
    pub fn root_set(&self) -> &BottleneckSet {
        &self.root_set
    }

    /// Number of feasible assignments at the root split.
    pub fn root_assignments(&self) -> usize {
        self.root_assignments
    }

    /// Shape fingerprint; a resumed run must re-derive an identical value.
    pub fn shape(&self) -> u64 {
        self.shape
    }

    /// Number of leaf slots (atomic sweeps) in the tree.
    pub fn leaf_count(&self) -> usize {
        self.slots
    }

    /// `max_depth` the plan was built with.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// `recursive_cut_sides` the plan was built with.
    pub fn recursive_cut_sides(&self) -> bool {
        self.recursive
    }

    /// `max_k` recursive cut searches used.
    pub fn max_k(&self) -> usize {
        self.max_k
    }

    /// Total configurations the leaf sweeps will enumerate in the worst
    /// case — the quantity recursion is meant to shrink.
    pub fn predicted_cost(&self) -> f64 {
        cost(&self.root)
    }

    /// The plan's run report, shaped like the one-level engine's so callers
    /// (and tests) keep seeing the root geometry, plus per-slot budget and
    /// cost accounting.
    pub fn report(
        &self,
        net: &Network,
        sweep: SweepStats,
        slots: Vec<PlanSlotReport>,
    ) -> BottleneckReport {
        BottleneckReport {
            set: self.root_set.clone(),
            assignment_count: self.root_assignments,
            alpha: self.root_set.alpha(net.edge_count()),
            sweep,
            plan_slots: slots,
        }
    }

    /// Renders the tree with per-node link counts and predicted sweep cost.
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan: {} leaf slot(s), root |D| = {}, max_k = {}, max_depth = {}, predicted cost ~{:.3e} configs\n",
            self.slots,
            self.root_assignments,
            self.max_k,
            self.max_depth,
            self.predicted_cost()
        );
        render_node(&self.root, 1, &mut out, None);
        out
    }

    /// Wraps the plan's root in a [`PlanNode::Reduce`] node describing a
    /// whole-instance structural reduction that ran *before* planning (the
    /// calculator reduces first and plans on the reduced instance). This is
    /// a presentation-layer wrapper for [`render`](Self::render): link ids
    /// in the tree then print as the original instance's ids. The shape
    /// fingerprint is deliberately left unchanged — it must keep matching
    /// the checkpoints written by executing the unwrapped plan.
    pub fn with_reduction(mut self, red: &crate::reduce::Reduction) -> Self {
        self.root = PlanNode::Reduce {
            stats: red.stats,
            origin: red.edge_origin.clone(),
            child: Box::new(self.root),
        };
        self
    }

    /// Executes the plan bottom-up under `opts.budget`, optionally resuming
    /// from a checkpoint produced by an earlier interrupted execution. The
    /// budget is apportioned across subtrees proportional to their
    /// remaining predicted cost (see the module docs).
    pub fn execute(
        &self,
        opts: &CalcOptions,
        resume: Option<&PlanCheckpoint>,
    ) -> Result<PlanOutcome, ReliabilityError> {
        if let Some(ck) = resume {
            if ck.shape != self.shape {
                return Err(mismatch(format!(
                    "checkpoint plan shape {:016x} does not match the re-derived plan {:016x}",
                    ck.shape, self.shape
                )));
            }
            if ck.leaves.len() != self.slots {
                return Err(mismatch(format!(
                    "checkpoint has {} leaf states, plan has {} slots",
                    ck.leaves.len(),
                    self.slots
                )));
            }
            // Shares are informational (recomputed from remaining work), so
            // an empty list is tolerated; a wrong-length one is corruption.
            if !ck.shares.is_empty() && ck.shares.len() != self.slots {
                return Err(mismatch(format!(
                    "checkpoint carries {} budget shares, plan has {} slots",
                    ck.shares.len(),
                    self.slots
                )));
            }
        }
        let mut infos = Vec::new();
        collect_slots(&self.root, resume, &mut infos);
        debug_assert_eq!(infos.len(), self.slots, "slot walk must match number()");
        let total_rem: f64 = infos.iter().map(|i| i.predicted).sum();
        let shares: Vec<f64> = infos
            .iter()
            .map(|i| {
                if total_rem > 0.0 {
                    i.predicted / total_rem
                } else {
                    0.0
                }
            })
            .collect();
        let sentinel = opts.budget.start();
        let ctx = ExecCtx {
            opts,
            resume,
            allow_mc: true,
        };
        let SubtreeOut { eval, slots } = exec_node(&self.root, &ctx, &sentinel)?;
        if slots.len() != self.slots {
            return Err(mismatch(format!(
                "execution produced {} leaf slots, plan numbered {}",
                slots.len(),
                self.slots
            )));
        }
        let mut stats = SweepStats::default();
        for s in &slots {
            stats.merge(&s.stats);
        }
        let reports: Vec<PlanSlotReport> = infos
            .iter()
            .zip(&slots)
            .enumerate()
            .map(|(i, (info, s))| PlanSlotReport {
                index: i,
                // sampling is decided at execution time, so the static slot
                // kind is overridden once the leaf actually sampled
                kind: match s.state {
                    PlanLeafState::MonteCarlo(_) | PlanLeafState::McDone { .. } => "mc",
                    _ => info.kind,
                },
                predicted: info.predicted,
                share: shares[i],
                configs: s.stats.configs,
                explored: s.explored,
            })
            .collect();
        if eval.complete {
            return Ok(PlanOutcome::Complete {
                reliability: eval.point,
                r_low: eval.lo,
                r_high: eval.hi,
                certified: eval.certified,
                stats,
                slots: reports,
            });
        }
        let explored = if slots.is_empty() {
            1.0
        } else {
            slots.iter().map(|s| s.explored).sum::<f64>() / slots.len() as f64
        };
        let r_low = eval.lo.clamp(0.0, 1.0);
        Ok(PlanOutcome::Partial {
            r_low,
            r_high: eval.hi.clamp(r_low, 1.0),
            certified: eval.certified,
            explored: explored.clamp(0.0, 1.0),
            checkpoint: PlanCheckpoint {
                root_cut: self.root_set.edges.clone(),
                root_max_k: self.max_k,
                max_depth: self.max_depth,
                recursive_cut_sides: self.recursive,
                hybrid: opts.hybrid,
                shape: self.shape,
                shares,
                leaves: slots.into_iter().map(|s| s.state).collect(),
            },
            stats,
            slots: reports,
        })
    }
}

/// Owned resume/accounting state of one leaf slot after execution.
struct LeafSlot {
    state: PlanLeafState,
    explored: f64,
    stats: SweepStats,
}

/// Immutable execution context shared (read-only) by every subtree.
#[derive(Clone, Copy)]
struct ExecCtx<'a> {
    opts: &'a CalcOptions,
    resume: Option<&'a PlanCheckpoint>,
    /// Whether hybrid Monte-Carlo placement is allowed in this subtree.
    /// Cleared inside `DeepCut` side evaluation: a statistical scalar
    /// folded into a spectrum mass vector would corrupt the certified
    /// pointwise underestimate the peel transform relies on.
    allow_mc: bool,
}

impl ExecCtx<'_> {
    fn leaf_state(&self, index: usize) -> Option<&PlanLeafState> {
        self.resume.and_then(|ck| ck.leaves.get(index))
    }

    /// Whether a fresh scalar leaf with `predicted` remaining configurations
    /// should be estimated statistically instead of swept: hybrid mode is
    /// on, sampling is allowed here, a configuration allowance is actually
    /// tracked, and the leaf's work exceeds the share its subtree holds.
    fn should_sample(&self, predicted: f64, sentinel: &BudgetSentinel) -> bool {
        self.opts.hybrid
            && self.allow_mc
            && sentinel.tracks_configs()
            && predicted > sentinel.remaining() as f64
    }
}

/// An interval around a subtree's reliability: certified (exact bounds)
/// until a sampled leaf contributes, statistical (confidence bounds) after.
#[derive(Clone, Copy)]
struct Eval {
    /// Point estimate: the exact value when `certified`, the combined
    /// Monte-Carlo mean otherwise. Tracked separately from `lo` so a
    /// statistical subtree still reports its natural point value.
    point: f64,
    lo: f64,
    hi: f64,
    complete: bool,
    /// AND over all contributing leaves: false once any leaf sampled.
    certified: bool,
}

/// A subtree's evaluation plus its owned leaf slots in DFS order.
struct SubtreeOut {
    eval: Eval,
    slots: Vec<LeafSlot>,
}

/// One side's (possibly peel-transformed) spectrum plus owned leaf slots.
struct SideOut {
    mass: Vec<f64>,
    live: Vec<usize>,
    complete: bool,
    slots: Vec<LeafSlot>,
}

/// Splits a sentinel's whole remaining allowance between two subtrees,
/// proportional to their remaining predicted costs. The parent retains
/// nothing: until a child releases, refills only come from sibling
/// releases, so the apportionment is a real partition of the allowance.
fn fork2(sentinel: &BudgetSentinel, cost_a: f64, cost_b: f64) -> (BudgetSentinel, BudgetSentinel) {
    if !sentinel.tracks_configs() {
        // Untracked children share the parent's state (deadline/cancel
        // still apply); apportioning would be meaningless.
        return (sentinel.child(0), sentinel.child(0));
    }
    let avail = sentinel.remaining();
    let total = cost_a + cost_b;
    let frac = if total > 0.0 {
        (cost_a / total).clamp(0.0, 1.0)
    } else {
        0.5
    };
    let share_a = (((avail as f64) * frac) as u64).min(avail);
    let a = sentinel.child(share_a);
    let b = sentinel.child(sentinel.remaining());
    (a, b)
}

/// Runs two subtree thunks against their apportioned sentinels — serially
/// in deterministic a-then-b order, or via rayon work stealing — releasing
/// each child's unspent allowance the moment its subtree returns (the
/// subtree is quiescent then, so the sibling can pick the refill up early).
fn join2<A, B>(
    parallel: bool,
    sa: BudgetSentinel,
    sb: BudgetSentinel,
    fa: impl FnOnce(&BudgetSentinel) -> A + Send,
    fb: impl FnOnce(&BudgetSentinel) -> B + Send,
) -> (A, B)
where
    A: Send,
    B: Send,
{
    if parallel {
        rayon::join(
            move || {
                let out = fa(&sa);
                sa.release();
                out
            },
            move || {
                let out = fb(&sb);
                sb.release();
                out
            },
        )
    } else {
        // Serial order is a-then-b: together with the engines' serial
        // determinism this makes interrupted runs resume bit-identically.
        let a = fa(&sa);
        sa.release();
        let b = fb(&sb);
        sb.release();
        (a, b)
    }
}

fn exec_node(
    node: &PlanNode,
    ctx: &ExecCtx<'_>,
    sentinel: &BudgetSentinel,
) -> Result<SubtreeOut, ReliabilityError> {
    match node {
        PlanNode::Const { value, .. } => Ok(SubtreeOut {
            eval: Eval {
                point: *value,
                lo: *value,
                hi: *value,
                complete: true,
                certified: true,
            },
            slots: Vec::new(),
        }),
        PlanNode::Preprocess { child, .. }
        | PlanNode::SpReduce { child, .. }
        | PlanNode::Reduce { child, .. } => exec_node(child, ctx, sentinel),
        PlanNode::Bridge {
            up, left, right, ..
        } => {
            let (sa, sb) = fork2(
                sentinel,
                remaining_cost(left, ctx.resume),
                remaining_cost(right, ctx.resume),
            );
            let (l, r) = join2(
                ctx.opts.parallel,
                sa,
                sb,
                |s| exec_node(left, ctx, s),
                |s| exec_node(right, ctx, s),
            );
            let (mut l, r) = (l?, r?);
            // Clamped at every combine: with statistical children (Wilson
            // CIs at p̂ ≈ 1) the product of upper bounds can exceed 1.
            let lo = (up * l.eval.lo * r.eval.lo).clamp(0.0, 1.0);
            let eval = Eval {
                point: (up * l.eval.point * r.eval.point).clamp(0.0, 1.0),
                lo,
                hi: (up * l.eval.hi * r.eval.hi).clamp(lo, 1.0),
                complete: l.eval.complete && r.eval.complete,
                certified: l.eval.certified && r.eval.certified,
            };
            l.slots.extend(r.slots);
            Ok(SubtreeOut {
                eval,
                slots: l.slots,
            })
        }
        PlanNode::Leaf(leaf) => {
            let resume = match ctx.leaf_state(leaf.index) {
                Some(PlanLeafState::Done { value }) => {
                    let value = *value;
                    return Ok(done_slot(value));
                }
                Some(PlanLeafState::McDone { mean, lo, hi }) => {
                    return Ok(mc_done_slot(*mean, *lo, *hi));
                }
                Some(PlanLeafState::MonteCarlo(ck)) => {
                    return exec_mc_leaf(
                        &leaf.net,
                        leaf.demand,
                        leaf.index,
                        ctx,
                        sentinel,
                        Some(ck),
                    );
                }
                Some(PlanLeafState::Naive(ck)) => Some(ck.clone()),
                None | Some(PlanLeafState::Fresh) => None,
                Some(_) => {
                    return Err(mismatch(
                        "checkpoint stores a foreign state for a naive leaf",
                    ))
                }
            };
            if resume.is_none() && ctx.should_sample(remaining_cost(node, ctx.resume), sentinel) {
                return exec_mc_leaf(&leaf.net, leaf.demand, leaf.index, ctx, sentinel, None);
            }
            let out = reliability_naive_anytime_on(
                &leaf.net,
                leaf.demand,
                ctx.opts,
                sentinel,
                resume.as_ref(),
            )?;
            Ok(settle_naive(out))
        }
        PlanNode::Cut(cut) => {
            let resume = match ctx.leaf_state(cut.index) {
                Some(PlanLeafState::Done { value }) => {
                    let value = *value;
                    return Ok(done_slot(value));
                }
                Some(PlanLeafState::McDone { mean, lo, hi }) => {
                    return Ok(mc_done_slot(*mean, *lo, *hi));
                }
                Some(PlanLeafState::MonteCarlo(ck)) => {
                    return exec_mc_leaf(&cut.net, cut.demand, cut.index, ctx, sentinel, Some(ck));
                }
                Some(PlanLeafState::Cut { side_s, side_t }) => Some((&**side_s, &**side_t)),
                None | Some(PlanLeafState::Fresh) => None,
                Some(_) => {
                    return Err(mismatch("checkpoint stores a foreign state for a cut leaf"))
                }
            };
            if resume.is_none() && ctx.should_sample(remaining_cost(node, ctx.resume), sentinel) {
                return exec_mc_leaf(&cut.net, cut.demand, cut.index, ctx, sentinel, None);
            }
            exec_cut(cut, ctx, sentinel, resume)
        }
        PlanNode::DeepCut(dc) => exec_deepcut(dc, ctx, sentinel),
    }
}

/// A leaf already finished by an earlier run: its value passes through and
/// its slot stays `Done`.
fn done_slot(value: f64) -> SubtreeOut {
    SubtreeOut {
        eval: Eval {
            point: value,
            lo: value,
            hi: value,
            complete: true,
            certified: true,
        },
        slots: vec![LeafSlot {
            state: PlanLeafState::Done { value },
            explored: 1.0,
            stats: SweepStats::default(),
        }],
    }
}

/// A sampled leaf already settled by an earlier run: its recorded interval
/// passes through (still statistical) and its slot stays `McDone`.
fn mc_done_slot(mean: f64, lo: f64, hi: f64) -> SubtreeOut {
    SubtreeOut {
        eval: Eval {
            point: mean,
            lo,
            hi,
            complete: true,
            certified: false,
        },
        slots: vec![LeafSlot {
            state: PlanLeafState::McDone { mean, lo, hi },
            explored: 1.0,
            stats: SweepStats::default(),
        }],
    }
}

fn settle_naive(out: NaiveOutcome) -> SubtreeOut {
    match out {
        NaiveOutcome::Complete { reliability, stats } => SubtreeOut {
            eval: Eval {
                point: reliability,
                lo: reliability,
                hi: reliability,
                complete: true,
                certified: true,
            },
            slots: vec![LeafSlot {
                state: PlanLeafState::Done { value: reliability },
                explored: 1.0,
                stats,
            }],
        },
        NaiveOutcome::Partial {
            r_low,
            r_high,
            explored,
            checkpoint,
            stats,
        } => SubtreeOut {
            eval: Eval {
                point: 0.5 * (r_low + r_high),
                lo: r_low,
                hi: r_high,
                complete: false,
                certified: true,
            },
            slots: vec![LeafSlot {
                state: PlanLeafState::Naive(checkpoint),
                explored,
                stats,
            }],
        },
    }
}

/// Runs (or resumes) the Monte-Carlo engine on a scalar leaf under the
/// leaf's budget lease: the sentinel's remaining configuration allowance
/// becomes the engine's per-run sample cap, the sentinel's deadline its
/// time limit, and the run's cancel token is shared, so interrupting the
/// plan interrupts the leaf. Samples drawn are debited back against the
/// allowance so sibling subtrees see the spend.
fn exec_mc_leaf(
    net: &Network,
    demand: FlowDemand,
    slot: usize,
    ctx: &ExecCtx<'_>,
    sentinel: &BudgetSentinel,
    resume: Option<&McCheckpoint>,
) -> Result<SubtreeOut, ReliabilityError> {
    let opts = ctx.opts;
    let allowance = if sentinel.tracks_configs() {
        // at least one batch, so a starved leaf still makes progress and
        // the run terminates instead of checkpointing forever
        Some(sentinel.remaining().max(opts.hybrid_mc.batch.max(1)))
    } else {
        None
    };
    let budget = montecarlo::McBudget {
        time_limit: sentinel.time_left(),
        max_samples: allowance,
        cancel: opts.budget.cancel.as_ref().map(|t| t.as_flag()),
    };
    let before = resume.map_or(0, |ck| ck.samples);
    let out = match resume {
        Some(ck) => montecarlo::engine::resume(
            net,
            demand.source,
            demand.sink,
            demand.demand,
            ck,
            &budget,
            opts.parallel,
        )?,
        None => {
            let settings = resolve_leaf_mc(net, demand, slot, opts);
            montecarlo::engine::run(
                net,
                demand.source,
                demand.sink,
                demand.demand,
                &settings,
                &budget,
                opts.parallel,
            )?
        }
    };
    let drawn = out.report().samples.saturating_sub(before);
    if drawn > 0 {
        sentinel.grant(1, drawn);
    }
    let explored_of = |r: &McReport, cap: u64| {
        if r.exact {
            1.0
        } else {
            (r.samples as f64 / cap.max(1) as f64).clamp(0.0, 1.0)
        }
    };
    Ok(match out {
        McOutcome::Done(report) if report.exact => done_slot(report.mean),
        McOutcome::Done(report) => mc_done_slot(report.mean, report.ci_low, report.ci_high),
        McOutcome::Interrupted { report, checkpoint } => {
            let cap = checkpoint.settings.target.max_samples;
            SubtreeOut {
                eval: Eval {
                    point: report.mean,
                    lo: report.ci_low,
                    hi: report.ci_high,
                    complete: false,
                    certified: false,
                },
                slots: vec![LeafSlot {
                    explored: explored_of(&report, cap),
                    state: PlanLeafState::MonteCarlo(Box::new(checkpoint)),
                    stats: SweepStats {
                        configs: drawn,
                        solver_calls: report.flow_evals,
                        ..SweepStats::default()
                    },
                }],
            }
        }
    })
}

/// Resolves the hybrid Monte-Carlo settings template for one plan leaf:
/// a per-leaf seed stream keyed by the leaf's DFS slot index, the plan's
/// solver, and — for [`EstimatorKind::Auto`] — an estimator chosen against
/// *this leaf's* subnetwork (dagger with the leaf's own bottleneck as
/// strata when one small enough exists, permutation otherwise).
///
/// [`EstimatorKind::Auto`]: montecarlo::EstimatorKind::Auto
fn resolve_leaf_mc(
    net: &Network,
    demand: FlowDemand,
    slot: usize,
    opts: &CalcOptions,
) -> McSettings {
    let mut s = opts.hybrid_mc.clone();
    s.solver = opts.solver;
    s.seed = montecarlo::plan_leaf_seed(opts.hybrid_mc.seed, slot as u64);
    if s.estimator == montecarlo::EstimatorKind::Auto {
        // Dagger stratifies over independent binary links; a multi-state
        // leaf samples per-link states, so it estimates by permutation.
        if net.has_multistate() {
            s.estimator = montecarlo::EstimatorKind::Permutation;
            s.strata = Vec::new();
            return s;
        }
        match find_bottleneck_set(net, demand.source, demand.sink, 3) {
            Ok(set) if set.edges.len() <= montecarlo::MAX_STRATA_LINKS => {
                s.estimator = montecarlo::EstimatorKind::Dagger;
                s.strata = set.edges;
            }
            _ => {
                s.estimator = montecarlo::EstimatorKind::Permutation;
                s.strata = Vec::new();
            }
        }
    }
    s
}

/// Executes a flat `Cut` slot: the split's two sides are swept whole
/// against the cut's assignment set ([`Split::sweep`]), drawing from the
/// slot's one sentinel, and combined like a `DeepCut`'s sides. The slot's
/// state is `Done` once both sweeps finish, otherwise the two side cursors
/// (`leaf cut`).
fn exec_cut(
    cut: &CutNode,
    ctx: &ExecCtx<'_>,
    sentinel: &BudgetSentinel,
    resume: Option<(&SideCheckpoint, &SideCheckpoint)>,
) -> Result<SubtreeOut, ReliabilityError> {
    let opts = ctx.opts;
    let split = Split::new(&cut.net, &cut.demand, &cut.set, edge_weights, opts)?;
    let dn = split.assignments.len();
    let start = match resume {
        Some((s, t)) => (
            Some(side_resume(s, &split.dec.side_s, dn, "source-side")?),
            Some(side_resume(t, &split.dec.side_t, dn, "sink-side")?),
        ),
        None => (None, None),
    };
    let (s, t, stats) = split.sweep(opts, sentinel, start)?;
    let eval = combine_sides(
        &split.cut_weights,
        &split.support,
        dn,
        opts.accumulation,
        (&s.mass, &s.live),
        (&t.mass, &t.live),
        s.cursor.remaining.is_empty() && t.cursor.remaining.is_empty(),
    );
    let slot = if eval.complete {
        LeafSlot {
            state: PlanLeafState::Done { value: eval.point },
            explored: 1.0,
            stats,
        }
    } else {
        LeafSlot {
            // the product of the two sides' explored probability mass
            explored: (explored_mass(&s.mass) * explored_mass(&t.mass)).clamp(0.0, 1.0),
            state: PlanLeafState::Cut {
                side_s: Box::new(s),
                side_t: Box::new(t),
            },
            stats,
        }
    };
    Ok(SubtreeOut {
        eval,
        slots: vec![slot],
    })
}

fn exec_deepcut(
    dc: &DeepCutNode,
    ctx: &ExecCtx<'_>,
    sentinel: &BudgetSentinel,
) -> Result<SubtreeOut, ReliabilityError> {
    let opts = ctx.opts;
    let (sa, sb) = fork2(
        sentinel,
        side_remaining(&dc.side_s, ctx.resume),
        side_remaining(&dc.side_t, ctx.resume),
    );
    // Sides never sample (see the module docs): a statistical factor in a
    // mass vector would corrupt the certified pointwise underestimate.
    let side_ctx = ExecCtx {
        allow_mc: false,
        ..*ctx
    };
    let (s, t) = join2(
        opts.parallel,
        sa,
        sb,
        |sent| exec_side(&dc.side_s, dc, &side_ctx, sent),
        |sent| exec_side(&dc.side_t, dc, &side_ctx, sent),
    );
    let (s, t) = (s?, t?);
    let eval = combine_sides(
        &dc.cut_weights,
        &dc.support,
        dc.assignments.len(),
        opts.accumulation,
        (&s.mass, &s.live),
        (&t.mass, &t.live),
        s.complete && t.complete,
    );
    let mut slots = s.slots;
    slots.extend(t.slots);
    Ok(SubtreeOut { eval, slots })
}

/// Probability mass a side sweep has examined so far.
fn explored_mass(mass: &[f64]) -> f64 {
    mass.iter().sum::<f64>().clamp(0.0, 1.0)
}

/// ACCUMULATION over the cut configurations (Section IV) of two side
/// spectra, given as `(mass, live assignments)`. Complete spectra give the
/// exact value; otherwise each side's unexplored mass is injected at its
/// worst-case (empty) and best-case (all live assignments) realization
/// masks, which by monotonicity brackets the value.
fn combine_sides(
    cut_weights: &[(f64, f64)],
    support: &[u32],
    dn: usize,
    accumulation: AccumulationMethod,
    (s_mass, s_live): (&[f64], &[usize]),
    (t_mass, t_live): (&[f64], &[usize]),
    complete: bool,
) -> Eval {
    if complete {
        let r = combine(cut_weights, support, s_mass, t_mass, dn, accumulation);
        return Eval {
            point: r,
            lo: r,
            hi: r,
            complete: true,
            certified: true,
        };
    }
    let live_mask = |live: &[usize]| live.iter().fold(0u32, |a, &j| a | 1 << j);
    let (lo, hi) = combine_interval(
        cut_weights,
        support,
        s_mass,
        &(1.0 - explored_mass(s_mass)).max(0.0),
        live_mask(s_live),
        t_mass,
        &(1.0 - explored_mass(t_mass)).max(0.0),
        live_mask(t_live),
        dn,
        accumulation,
    );
    let lo = lo.clamp(0.0, 1.0);
    let hi = hi.clamp(lo, 1.0);
    Eval {
        point: 0.5 * (lo + hi),
        lo,
        hi,
        complete: false,
        certified: true,
    }
}

fn exec_side(
    sp: &SidePlan,
    dc: &DeepCutNode,
    ctx: &ExecCtx<'_>,
    sentinel: &BudgetSentinel,
) -> Result<SideOut, ReliabilityError> {
    match sp {
        SidePlan::Sweep(sw) => exec_sweep(sw, dc, ctx, sentinel),
        SidePlan::Peel { up, scalar, inner } => {
            let (sa, sb) = fork2(
                sentinel,
                remaining_cost(scalar, ctx.resume),
                side_remaining(inner, ctx.resume),
            );
            let (a, b) = join2(
                ctx.opts.parallel,
                sa,
                sb,
                |sent| exec_node(scalar, ctx, sent),
                |sent| exec_side(inner, dc, ctx, sent),
            );
            let (a, mut b) = (a?, b?);
            debug_assert!(
                a.eval.certified,
                "peel scalars must not sample (allow_mc is off inside sides)"
            );
            // Peel transform (see the module docs): pointwise-exact when
            // both parts are complete, pointwise underestimate plus a
            // nonnegative residual otherwise.
            let m0 = b.mass[0];
            for v in b.mass.iter_mut() {
                *v *= up * a.eval.lo;
            }
            b.mass[0] = (1.0 - up * a.eval.hi * (1.0 - m0)).max(0.0);
            b.complete = b.complete && a.eval.complete;
            let mut slots = a.slots;
            slots.extend(b.slots);
            b.slots = slots;
            Ok(b)
        }
    }
}

fn exec_sweep(
    sw: &SweepNode,
    dc: &DeepCutNode,
    ctx: &ExecCtx<'_>,
    sentinel: &BudgetSentinel,
) -> Result<SideOut, ReliabilityError> {
    let dn = dc.assignments.len();
    let resume = match ctx.leaf_state(sw.index) {
        None | Some(PlanLeafState::Fresh) => None,
        Some(PlanLeafState::Side(ck)) => Some(side_resume(ck, &sw.side, dn, "side-sweep")?),
        Some(_) => {
            return Err(mismatch(
                "checkpoint stores a foreign state for a sweep leaf",
            ))
        }
    };
    let weights = edge_weights(&sw.side.net);
    let (ck, stats) = sweep_side(
        &sw.side,
        &dc.assignments,
        &weights,
        ctx.opts,
        sentinel,
        resume,
    )?;
    // Even a completed sweep stays a `Side` state (with nothing remaining):
    // the parent cut needs the mass vector, not a scalar, so `Done` never
    // applies to sweep slots. Resuming a completed sweep is a no-op.
    Ok(SideOut {
        mass: ck.mass.clone(),
        live: ck.live.clone(),
        complete: ck.cursor.remaining.is_empty(),
        slots: vec![LeafSlot {
            explored: ck.cursor.progress(),
            state: PlanLeafState::Side(Box::new(ck)),
            stats,
        }],
    })
}

/// Validates a side checkpoint against `side`, swept over `dn` assignments,
/// and returns it as the side sweep's resume state. The checkpoint's `live`
/// set is authoritative — it records which assignments the interrupted run
/// swept. The masses split the probability of the configurations swept so
/// far, so they are finite, nonnegative, add up to at most 1, and sit only
/// on masks of live assignments; a checkpoint outside that could resume to
/// a "certified" answer above 1. No assignment's certificates, over the
/// side's link capacities, may contradict each other.
fn side_resume(
    ck: &SideCheckpoint,
    side: &Side,
    dn: usize,
    which: &str,
) -> Result<SideCheckpoint, ReliabilityError> {
    let m = side.net.edge_count();
    if ck.cursor.total != 1u64 << m {
        return Err(mismatch(format!(
            "{which} checkpoint enumerates {} configurations, this side {}",
            ck.cursor.total,
            1u64 << m
        )));
    }
    if ck.mass.len() != 1usize << dn {
        return Err(mismatch(format!(
            "{which} checkpoint carries {} mask masses, this instance needs {}",
            ck.mass.len(),
            1usize << dn
        )));
    }
    if let Some(&j) = ck.live.iter().find(|&&j| j >= dn) {
        return Err(mismatch(format!(
            "{which} checkpoint marks assignment {j} live, only {dn} exist"
        )));
    }
    let live = ck.live.iter().fold(0usize, |b, &j| b | 1 << j);
    if let Some((r, w)) = ck
        .mass
        .iter()
        .enumerate()
        .find(|&(r, &w)| !(w.is_finite() && w >= 0.0) || (w != 0.0 && r & !live != 0))
    {
        return Err(mismatch(format!(
            "{which} checkpoint puts mass {w} on mask {r:#x} (live {live:#x})"
        )));
    }
    let total: f64 = ck.mass.iter().sum();
    if total > 1.0 + SLACK {
        return Err(mismatch(format!(
            "{which} checkpoint masses add up to {total}"
        )));
    }
    let caps: Vec<u64> = side.net.edges().iter().map(|e| e.capacity).collect();
    for certs in &ck.certs {
        check_certs(certs, &caps, which)?;
    }
    Ok(ck.clone())
}

/// Builds the node for a split on an explicit, validated set. Emits a
/// [`PlanNode::Bridge`] (recursing into the sides) when the assignment set
/// is a single all-nonnegative assignment and depth remains; otherwise
/// tries a [`PlanNode::DeepCut`] with recursively decomposed sides, falling
/// back to a flat [`PlanNode::Cut`] — after checking the enumeration bounds
/// of the side sweeps.
fn split_node(
    net: &Network,
    demand: FlowDemand,
    set: &BottleneckSet,
    assignments: Vec<Assignment>,
    depth: usize,
    opts: &CalcOptions,
    max_k: usize,
) -> Result<PlanNode, ReliabilityError> {
    if assignments.is_empty() {
        return Ok(PlanNode::Const {
            value: 0.0,
            reason: "cut capacity below demand",
        });
    }
    let singleton = assignments.len() == 1 && assignments[0].amounts.iter().all(|&x| x >= 0);
    // A bridge across multi-state cut links would need the scalar `up` to be
    // a per-state mixture; v1 keeps cut links binary (the bottleneck search
    // already excludes multi-state candidates, this guards explicit sets).
    let cut_multistate = set.edges.iter().any(|&e| net.spectrum(e).is_some());
    if depth > 0 && singleton && !cut_multistate {
        let amounts = &assignments[0].amounts;
        let mut up = 1.0;
        for (i, &e) in set.edges.iter().enumerate() {
            if amounts[i] != 0 {
                up *= 1.0 - net.edges()[e.index()].fail_prob;
            }
        }
        let dec = decompose(net, &demand, set);
        let (left_net, left_demand) = side_subproblem(&dec.side_s, amounts, demand.demand)?;
        let (right_net, right_demand) = side_subproblem(&dec.side_t, amounts, demand.demand)?;
        let left = build_node(&left_net, left_demand, depth - 1, opts, max_k)?;
        let right = build_node(&right_net, right_demand, depth - 1, opts, max_k)?;
        return Ok(PlanNode::Bridge {
            cut: set.edges.clone(),
            up,
            left: Box::new(left),
            right: Box::new(right),
        });
    }
    // Cut and DeepCut slots sweep sides as binary spectra,
    // which cannot represent per-link state mixtures. A multi-state
    // subnetwork therefore never splits further in v1: it is swept whole by
    // a scalar leaf, whose naive engine enumerates mixed-radix natively.
    if net.has_multistate() {
        return leaf_node(net, demand, opts);
    }
    // Side sweep bounds: checked at plan time either way, so the caller
    // learns the plan is infeasible before any budget is spent.
    check_cut_edges(set.edges.len())?;
    check_assignments(assignments.len(), opts.max_assignments)?;
    check_side_edges(set.side_s_edges.max(set.side_t_edges), MAX_SIDE_EDGES)?;
    // A DeepCut pays per-assignment spectrum transforms and a deeper slot
    // walk on top of its sweeps, so a marginal predicted saving loses to
    // the flat engine in practice. Charge each leaf slot a fixed setup
    // equivalent (sweep init, warm state, spectrum assembly dominate
    // sub-hundred-config leaves) and accept the deep shape only when it
    // still wins by at least 2×; otherwise the plain `Cut` below is the
    // cheaper shape. A flat sweep under the skip threshold can never be
    // beaten by that margin (a deep tree has >= 2 slots), so don't even pay
    // for constructing the candidate.
    const LEAF_SETUP_COST: f64 = 128.0;
    const DEEP_SKIP_FLAT_COST: f64 = 2048.0;
    let side = |m: usize| (1u64 << m.min(63)) as f64;
    let flat = assignments.len() as f64 * (side(set.side_s_edges) + side(set.side_t_edges));
    if opts.recursive_cut_sides && depth > 0 && set.edges.len() <= 16 && flat > DEEP_SKIP_FLAT_COST
    {
        if let Some(node) = deep_cut_node(net, demand, set, depth, opts, max_k)? {
            let mut slots = Vec::new();
            collect_slots(&node, None, &mut slots);
            if (cost(&node) + LEAF_SETUP_COST * slots.len() as f64) * 2.0 <= flat {
                return Ok(node);
            }
        }
    }
    Ok(PlanNode::Cut(Box::new(CutNode {
        net: net.clone(),
        demand,
        set: set.clone(),
        assignments: assignments.len(),
        index: 0,
    })))
}

/// Tries to build a [`PlanNode::DeepCut`] by peeling both sides. Returns
/// `None` when neither side peels — a plain `Cut` then executes the same
/// work with less machinery (and keeps the PR 5 plan shapes, so existing
/// checkpoints stay resumable).
fn deep_cut_node(
    net: &Network,
    demand: FlowDemand,
    set: &BottleneckSet,
    depth: usize,
    opts: &CalcOptions,
    max_k: usize,
) -> Result<Option<PlanNode>, ReliabilityError> {
    let Split {
        assignments,
        dec,
        support,
        cut_weights,
        ..
    } = Split::new(net, &demand, set, edge_weights, opts)?;
    let peel = |side| peel_side(side, &assignments, demand.demand, depth - 1, opts, max_k);
    let side_s = peel(dec.side_s)?;
    let side_t = peel(dec.side_t)?;
    if matches!(side_s, SidePlan::Sweep(_)) && matches!(side_t, SidePlan::Sweep(_)) {
        return Ok(None);
    }
    Ok(Some(PlanNode::DeepCut(Box::new(DeepCutNode {
        set: set.clone(),
        assignments,
        cut_weights,
        support,
        side_s,
        side_t,
    }))))
}

/// Recursively decomposes one side of a cut. Searches the side (augmented
/// with a perfect super-terminal standing for the cut) for an internal
/// *peel cut* that separates the side's terminal from every attach point
/// with a unique all-nonnegative crossing `x'`; when one is found, the
/// side factors into a scalar subtree (the terminal part delivering `x'`)
/// times a smaller residual side, and the residual recurses. Falls back to
/// sweeping the side whole.
fn peel_side(
    side: Side,
    assignments: &[Assignment],
    d: u64,
    depth: usize,
    opts: &CalcOptions,
    max_k: usize,
) -> Result<SidePlan, ReliabilityError> {
    let dn = assignments.len();
    let sweep = |side: Side| SidePlan::Sweep(Box::new(SweepNode { side, dn, index: 0 }));
    if depth == 0 || side.net.edge_count() < PEEL_MIN_EDGES || side.attach.is_empty() {
        return Ok(sweep(side));
    }
    let m = side.net.edge_count();
    // Augment the side with a super-terminal `aug` joined to the attach
    // points by perfect links whose capacities cover every assignment's
    // positive *and* negative amounts, so every assignment's side routing
    // embeds in the augmented network — the property the uniqueness
    // argument below rests on.
    let n_attach = side.attach.len();
    let mut pos = vec![0i64; n_attach];
    let mut neg = vec![0i64; n_attach];
    for a in assignments {
        for (i, &x) in a.amounts.iter().enumerate() {
            pos[i] = pos[i].max(x);
            neg[i] = neg[i].max(-x);
        }
    }
    let aug = NodeId(side.net.node_count() as u32);
    let mut b = netgraph::NetworkBuilder::with_nodes(side.net.kind(), side.net.node_count() + 1);
    for (i, e) in side.net.edges().iter().enumerate() {
        match side.net.spectrum(EdgeId::from(i)) {
            Some(sp) => b.add_spectrum_edge(e.src, e.dst, sp.states())?,
            None => b.add_edge(e.src, e.dst, e.capacity, e.fail_prob)?,
        };
    }
    for i in 0..n_attach {
        match side.net.kind() {
            GraphKind::Undirected => {
                let cap = pos[i].max(neg[i]);
                if cap > 0 {
                    b.add_perfect_edge(side.attach[i], aug, cap as u64)?;
                }
            }
            GraphKind::Directed => {
                let (fwd, rev) = if side.is_source_side {
                    ((side.attach[i], aug), (aug, side.attach[i]))
                } else {
                    ((aug, side.attach[i]), (side.attach[i], aug))
                };
                if pos[i] > 0 {
                    b.add_perfect_edge(fwd.0, fwd.1, pos[i] as u64)?;
                }
                if neg[i] > 0 {
                    b.add_perfect_edge(rev.0, rev.1, neg[i] as u64)?;
                }
            }
        }
    }
    let aug_net = b.build();
    let (from, to) = if side.is_source_side {
        (side.terminal, aug)
    } else {
        (aug, side.terminal)
    };
    let aug_demand = FlowDemand::new(from, to, d);
    let Ok(mut sets) = find_all_bottleneck_sets(&aug_net, from, to, max_k) else {
        return Ok(sweep(side));
    };
    // Prefer balanced, small peel cuts: they shave the most off the sweep
    // exponent per unit of scalar-subtree work.
    sets.sort_by_key(|c| (c.side_s_edges.max(c.side_t_edges), c.k()));
    for cand in sets {
        // Peel cuts must consist of original side links (never the perfect
        // attach links, whose aliveness is not part of the side spectrum).
        if cand.edges.iter().any(|e| e.index() >= m) {
            continue;
        }
        // In the augmented flow direction, `side_s` holds `from` and
        // `side_t` holds `to`; the terminal part is the one with the
        // side's own terminal, the residual part the one with `aug`.
        let (term_edges, b_part_nodes) = if side.is_source_side {
            (cand.side_s_edges, &cand.side_t_nodes)
        } else {
            (cand.side_t_edges, &cand.side_s_nodes)
        };
        if term_edges == 0 {
            // The residual side would not shrink.
            continue;
        }
        // The peel is exact only when the crossing is unique and
        // all-nonnegative; check in the exact net model regardless of the
        // caller's assignment model (`ForwardOnly` could miss crossings
        // and "prove" a spurious uniqueness).
        let ranges = crossing_ranges(
            &aug_net,
            &cand.edges,
            &cand.forward_oriented,
            d,
            AssignmentModel::Net,
        );
        let unique = enumerate_assignments(d, &ranges);
        if unique.len() != 1 || unique[0].amounts.iter().any(|&x| x < 0) {
            continue;
        }
        let xp = &unique[0].amounts;
        // Terminal part: a standalone scalar subproblem (probability the
        // part delivers `x'` across the peel cut), planned recursively.
        let pdec = decompose(&aug_net, &aug_demand, &cand);
        let a_side = if side.is_source_side {
            &pdec.side_s
        } else {
            &pdec.side_t
        };
        let (a_net, a_demand) = side_subproblem(a_side, xp, d)?;
        let scalar = match build_node(&a_net, a_demand, depth, opts, max_k) {
            Ok(node) => node,
            // The scalar subproblem exceeds an enumeration bound; another
            // candidate may still fit.
            Err(
                ReliabilityError::TooManyAssignments { .. }
                | ReliabilityError::SideTooLarge { .. }
                | ReliabilityError::TooManyEdges { .. }
                | ReliabilityError::EdgeMaskOverflow { .. },
            ) => continue,
            Err(e) => return Err(e),
        };
        // Residual part: the original attach points with the peel cut
        // replaced by a perfect super-terminal delivering `x'`. Peel-cut
        // links with `x'_j = 0` are forced to carry nothing and vanish
        // (their aliveness marginalizes out of the spectrum); links with
        // `x'_j ≠ 0` contribute the `up` factor.
        let b_core: Vec<NodeId> = b_part_nodes.iter().copied().filter(|&n| n != aug).collect();
        let (sub, map, _) = side.net.induced(&b_core, None);
        let t_new = NodeId(sub.node_count() as u32);
        let mut bb = netgraph::NetworkBuilder::with_nodes(sub.kind(), sub.node_count() + 1);
        let mut builder_ok = true;
        for e in sub.edges() {
            bb.add_edge(e.src, e.dst, e.capacity, e.fail_prob)?;
        }
        let mut up = 1.0;
        for (j, &e) in cand.edges.iter().enumerate() {
            if xp[j] == 0 {
                continue;
            }
            let edge = side.net.edge(e);
            up *= 1.0 - edge.fail_prob;
            let inside = if b_core.contains(&edge.src) {
                edge.src
            } else {
                edge.dst
            };
            let Some(mapped) = map.get(inside) else {
                builder_ok = false;
                break;
            };
            if side.is_source_side {
                bb.add_perfect_edge(t_new, mapped, xp[j] as u64)?;
            } else {
                bb.add_perfect_edge(mapped, t_new, xp[j] as u64)?;
            }
        }
        if !builder_ok {
            continue;
        }
        let b_net = bb.build();
        if b_net.edge_count() > MAX_SIDE_EDGES {
            continue;
        }
        // Attach points carrying zero in every assignment may sit in the
        // terminal part; their node choice is irrelevant (zero production),
        // so they fall back to the super-terminal.
        let attach: Vec<NodeId> = side
            .attach
            .iter()
            .map(|&a| map.get(a).unwrap_or(t_new))
            .collect();
        let b_side = Side {
            net: b_net,
            edge_origin: Vec::new(),
            terminal: t_new,
            attach,
            is_source_side: side.is_source_side,
        };
        let inner = peel_side(b_side, assignments, d, depth - 1, opts, max_k)?;
        return Ok(SidePlan::Peel {
            up,
            scalar: Box::new(scalar),
            inner: Box::new(inner),
        });
    }
    Ok(sweep(side))
}

/// Recursively plans a subproblem: constant-folds decided cases, peels
/// reductions, splits on a worthwhile bottleneck while depth remains, and
/// otherwise emits a naive leaf (checking its enumeration bound).
fn build_node(
    net: &Network,
    demand: FlowDemand,
    depth: usize,
    opts: &CalcOptions,
    max_k: usize,
) -> Result<PlanNode, ReliabilityError> {
    if demand.demand == 0 || demand.source == demand.sink {
        return Ok(PlanNode::Const {
            value: 1.0,
            reason: "zero demand",
        });
    }
    demand.validate(net)?;
    // Structural reduction on every planner side: side subproblems carry
    // perfect attach links and clamped slack that the whole-instance pass
    // (which ran before planning) could not see from the outside. The
    // per-side pass never clamps to the side demand — side values must stay
    // value-exact, not merely predicate-exact. Reduction reaches a fixed
    // point, so the recursive call finds nothing further and terminates.
    if opts.reduce {
        let red = reduce(net, demand, false, opts.solver);
        if !red.is_identity() {
            let child = build_node(&red.net, red.demand, depth, opts, max_k)?;
            return Ok(PlanNode::Reduce {
                stats: red.stats,
                origin: red.edge_origin,
                child: Box::new(child),
            });
        }
    }
    let reduced = relevance_reduce(net, demand);
    if reduced.removed > 0 {
        let child = build_node(&reduced.net, reduced.demand, depth, opts, max_k)?;
        return Ok(PlanNode::Preprocess {
            removed: reduced.removed,
            child: Box::new(child),
        });
    }
    let mut oracle = DemandOracle::new(net, demand.source, demand.sink, demand.demand, opts.solver);
    if oracle.max_flow_all_alive() < demand.demand {
        return Ok(PlanNode::Const {
            value: 0.0,
            reason: "demand exceeds the all-alive max flow",
        });
    }
    if demand.demand == 1 && net.kind() == GraphKind::Undirected && !net.has_multistate() {
        let red = reduce_unit_demand(net, demand.source, demand.sink);
        if red.net.edge_count() < net.edge_count() {
            let child = if red.source == red.sink {
                PlanNode::Const {
                    value: 1.0,
                    reason: "terminals merged by series-parallel reduction",
                }
            } else {
                build_node(
                    &red.net,
                    FlowDemand::new(red.source, red.sink, 1),
                    depth,
                    opts,
                    max_k,
                )?
            };
            return Ok(PlanNode::SpReduce {
                stats: red.stats,
                child: Box::new(child),
            });
        }
    }
    if depth > 0 {
        if let Ok(set) = find_bottleneck_set(net, demand.source, demand.sink, max_k) {
            // Same heuristic as the auto strategy, plus: a split with an
            // empty side gains nothing (its subproblem is the whole
            // network again) and could recurse in place.
            let worth_it = set.side_s_edges > 0
                && set.side_t_edges > 0
                && set.side_s_edges.max(set.side_t_edges) + 2 < net.edge_count();
            if worth_it {
                let ranges = crossing_ranges(
                    net,
                    &set.edges,
                    &set.forward_oriented,
                    demand.demand,
                    opts.assignment_model,
                );
                let assignments = enumerate_assignments(demand.demand, &ranges);
                match split_node(net, demand, &set, assignments, depth, opts, max_k) {
                    Ok(node) => return Ok(node),
                    // The split exceeds the side-sweep bounds; a plain
                    // leaf may still fit.
                    Err(
                        ReliabilityError::TooManyAssignments { .. }
                        | ReliabilityError::SideTooLarge { .. },
                    ) => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    leaf_node(net, demand, opts)
}

fn leaf_node(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<PlanNode, ReliabilityError> {
    if net.edge_count() > EdgeMask::MAX_EDGES {
        return Err(ReliabilityError::EdgeMaskOverflow {
            count: net.edge_count(),
            max: EdgeMask::MAX_EDGES,
        });
    }
    let (fallible, configs) = if net.has_multistate() {
        // One digit per random link; the sweep walks the mixed-radix
        // configuration space, so the predicted cost is the radix product.
        let x = netgraph::StateExpansion::build(net).map_err(|_| {
            ReliabilityError::EdgeMaskOverflow {
                count: net.edge_count(),
                max: EdgeMask::MAX_EDGES,
            }
        })?;
        let radices = x.radices();
        let configs = radices.iter().fold(1.0f64, |a, &r| a * r as f64);
        (radices.len(), configs)
    } else {
        let fallible = net
            .edges()
            .iter()
            .filter(|e| !(opts.factor_perfect_links && e.fail_prob == 0.0))
            .count();
        (fallible, (1u64 << fallible.min(63)) as f64)
    };
    if fallible > MAX_ENUM_EDGES {
        return Err(ReliabilityError::TooManyEdges {
            count: fallible,
            max: MAX_ENUM_EDGES,
        });
    }
    Ok(PlanNode::Leaf(Box::new(LeafNode {
        net: net.clone(),
        demand,
        fallible,
        configs,
        index: 0,
    })))
}

/// Rebuilds one side as a standalone subproblem: the side's links plus one
/// perfect link of capacity `x_i` from attach point `i` to a super-terminal
/// (source side: attach → aug; sink side: aug → attach), for every
/// `x_i ≠ 0`. Routing `d = Σ x_i` between the side's demand terminal and
/// the super-terminal then forces exactly `x_i` through attach point `i`,
/// so the subproblem's reliability equals the probability the side
/// realizes the assignment.
fn side_subproblem(
    side: &Side,
    amounts: &[i64],
    d: u64,
) -> Result<(Network, FlowDemand), ReliabilityError> {
    let aug = NodeId(side.net.node_count() as u32);
    let mut b = netgraph::NetworkBuilder::with_nodes(side.net.kind(), side.net.node_count() + 1);
    for (i, e) in side.net.edges().iter().enumerate() {
        match side.net.spectrum(EdgeId::from(i)) {
            Some(sp) => b.add_spectrum_edge(e.src, e.dst, sp.states())?,
            None => b.add_edge(e.src, e.dst, e.capacity, e.fail_prob)?,
        };
    }
    for (i, &x) in amounts.iter().enumerate() {
        if x != 0 {
            if side.is_source_side {
                b.add_perfect_edge(side.attach[i], aug, x as u64)?;
            } else {
                b.add_perfect_edge(aug, side.attach[i], x as u64)?;
            }
        }
    }
    let demand = if side.is_source_side {
        FlowDemand::new(side.terminal, aug, d)
    } else {
        FlowDemand::new(aug, side.terminal, d)
    };
    Ok((b.build(), demand))
}

/// Assigns DFS slot indices to leaves (Leaf, Cut, and side-sweep nodes)
/// after the tree is final, so abandoned split attempts never leave gaps.
fn number(node: &mut PlanNode, next: &mut usize) {
    match node {
        PlanNode::Leaf(l) => {
            l.index = *next;
            *next += 1;
        }
        PlanNode::Cut(c) => {
            c.index = *next;
            *next += 1;
        }
        PlanNode::Preprocess { child, .. }
        | PlanNode::SpReduce { child, .. }
        | PlanNode::Reduce { child, .. } => number(child, next),
        PlanNode::Bridge { left, right, .. } => {
            number(left, next);
            number(right, next);
        }
        PlanNode::DeepCut(dc) => {
            number_side(&mut dc.side_s, next);
            number_side(&mut dc.side_t, next);
        }
        PlanNode::Const { .. } => {}
    }
}

fn number_side(sp: &mut SidePlan, next: &mut usize) {
    match sp {
        SidePlan::Sweep(sw) => {
            sw.index = *next;
            *next += 1;
        }
        SidePlan::Peel { scalar, inner, .. } => {
            number(scalar, next);
            number_side(inner, next);
        }
    }
}

fn hash_node(node: &PlanNode, h: &mut Fnv1a) {
    match node {
        PlanNode::Const { value, .. } => {
            h.write(1);
            h.write(value.to_bits());
        }
        PlanNode::Leaf(l) => {
            h.write(2);
            h.write(l.net.edge_count() as u64);
            h.write(l.net.node_count() as u64);
            h.write(l.fallible as u64);
            h.write(l.demand.source.0 as u64);
            h.write(l.demand.sink.0 as u64);
            h.write(l.demand.demand);
        }
        PlanNode::Preprocess { removed, child } => {
            h.write(3);
            h.write(*removed as u64);
            hash_node(child, h);
        }
        PlanNode::SpReduce { stats, child } => {
            h.write(4);
            h.write(stats.series as u64);
            h.write(stats.parallel as u64);
            h.write(stats.dangling as u64);
            h.write(stats.dropped as u64);
            hash_node(child, h);
        }
        PlanNode::Bridge {
            cut,
            up,
            left,
            right,
        } => {
            h.write(5);
            h.write(cut.len() as u64);
            for e in cut {
                h.write(e.0 as u64);
            }
            h.write(up.to_bits());
            hash_node(left, h);
            hash_node(right, h);
        }
        PlanNode::Cut(c) => {
            h.write(6);
            h.write(c.set.edges.len() as u64);
            for e in &c.set.edges {
                h.write(e.0 as u64);
            }
            h.write(c.assignments as u64);
            h.write(c.net.edge_count() as u64);
            h.write(c.demand.demand);
        }
        PlanNode::DeepCut(dc) => {
            h.write(7);
            h.write(dc.set.edges.len() as u64);
            for e in &dc.set.edges {
                h.write(e.0 as u64);
            }
            h.write(dc.assignments.len() as u64);
            hash_side(&dc.side_s, h);
            hash_side(&dc.side_t, h);
        }
        PlanNode::Reduce {
            stats,
            origin,
            child,
        } => {
            h.write(10);
            h.write(stats.relevance_removed as u64);
            h.write(stats.bound_removed as u64);
            h.write(stats.clamped as u64);
            h.write(stats.merged as u64);
            h.write(stats.contracted as u64);
            h.write(origin.len() as u64);
            for o in origin {
                h.write(o.len() as u64);
                for e in o {
                    h.write(e.0 as u64);
                }
            }
            hash_node(child, h);
        }
    }
}

fn hash_side(sp: &SidePlan, h: &mut Fnv1a) {
    match sp {
        SidePlan::Sweep(sw) => {
            h.write(8);
            h.write(sw.side.net.edge_count() as u64);
            h.write(sw.side.net.node_count() as u64);
            h.write(sw.side.attach.len() as u64);
            h.write(sw.side.terminal.0 as u64);
            h.write(sw.side.is_source_side as u64);
        }
        SidePlan::Peel { up, scalar, inner } => {
            h.write(9);
            h.write(up.to_bits());
            hash_node(scalar, h);
            hash_side(inner, h);
        }
    }
}

fn cost(node: &PlanNode) -> f64 {
    match node {
        PlanNode::Const { .. } => 0.0,
        PlanNode::Leaf(l) => l.configs,
        PlanNode::Preprocess { child, .. }
        | PlanNode::SpReduce { child, .. }
        | PlanNode::Reduce { child, .. } => cost(child),
        PlanNode::Bridge { left, right, .. } => cost(left) + cost(right),
        PlanNode::Cut(c) => {
            let side = |m: usize| (1u64 << m.min(63)) as f64;
            c.assignments as f64 * (side(c.set.side_s_edges) + side(c.set.side_t_edges))
        }
        PlanNode::DeepCut(dc) => side_cost(&dc.side_s) + side_cost(&dc.side_t),
    }
}

fn side_cost(sp: &SidePlan) -> f64 {
    match sp {
        SidePlan::Sweep(sw) => sw.dn as f64 * (1u64 << sw.side.net.edge_count().min(63)) as f64,
        SidePlan::Peel { scalar, inner, .. } => cost(scalar) + side_cost(inner),
    }
}

/// Resume-aware remaining cost: like [`cost`], but leaves already finished
/// (or partially swept) by a previous run count only their leftover work.
/// This is what budget forks apportion on, so finished subtrees get
/// nothing and partially-done ones get their fair remainder.
fn remaining_cost(node: &PlanNode, resume: Option<&PlanCheckpoint>) -> f64 {
    let state = |i: usize| resume.and_then(|ck| ck.leaves.get(i));
    match node {
        PlanNode::Const { .. } => 0.0,
        PlanNode::Leaf(l) => match state(l.index) {
            Some(PlanLeafState::Done { .. } | PlanLeafState::McDone { .. }) => 0.0,
            Some(PlanLeafState::Naive(ck)) => ck.cursor.remaining_configs() as f64,
            Some(PlanLeafState::MonteCarlo(mc)) => mc_remaining(mc),
            _ => l.configs,
        },
        PlanNode::Cut(c) => match state(c.index) {
            Some(PlanLeafState::Done { .. } | PlanLeafState::McDone { .. }) => 0.0,
            Some(PlanLeafState::Cut { side_s, side_t }) => {
                side_s.live.len().max(1) as f64 * side_s.cursor.remaining_configs() as f64
                    + side_t.live.len().max(1) as f64 * side_t.cursor.remaining_configs() as f64
            }
            Some(PlanLeafState::MonteCarlo(mc)) => mc_remaining(mc),
            _ => cost(node),
        },
        PlanNode::Preprocess { child, .. }
        | PlanNode::SpReduce { child, .. }
        | PlanNode::Reduce { child, .. } => remaining_cost(child, resume),
        PlanNode::Bridge { left, right, .. } => {
            remaining_cost(left, resume) + remaining_cost(right, resume)
        }
        PlanNode::DeepCut(dc) => {
            side_remaining(&dc.side_s, resume) + side_remaining(&dc.side_t, resume)
        }
    }
}

/// Remaining work of an interrupted Monte-Carlo leaf, in samples: an honest
/// cost proxy — one sample costs about one solver call, like one config.
fn mc_remaining(mc: &McCheckpoint) -> f64 {
    mc.settings.target.max_samples.saturating_sub(mc.samples) as f64
}

fn side_remaining(sp: &SidePlan, resume: Option<&PlanCheckpoint>) -> f64 {
    match sp {
        SidePlan::Sweep(sw) => match resume.and_then(|ck| ck.leaves.get(sw.index)) {
            Some(PlanLeafState::Side(ck)) => {
                ck.live.len().max(1) as f64 * ck.cursor.remaining_configs() as f64
            }
            _ => side_cost(sp),
        },
        SidePlan::Peel { scalar, inner, .. } => {
            remaining_cost(scalar, resume) + side_remaining(inner, resume)
        }
    }
}

/// Per-slot reporting info, gathered in the same DFS order as [`number`].
struct SlotInfo {
    kind: &'static str,
    predicted: f64,
}

fn collect_slots(node: &PlanNode, resume: Option<&PlanCheckpoint>, out: &mut Vec<SlotInfo>) {
    match node {
        PlanNode::Const { .. } => {}
        PlanNode::Leaf(_) => out.push(SlotInfo {
            kind: "naive",
            predicted: remaining_cost(node, resume),
        }),
        PlanNode::Cut(_) => out.push(SlotInfo {
            kind: "cut",
            predicted: remaining_cost(node, resume),
        }),
        PlanNode::Preprocess { child, .. }
        | PlanNode::SpReduce { child, .. }
        | PlanNode::Reduce { child, .. } => collect_slots(child, resume, out),
        PlanNode::Bridge { left, right, .. } => {
            collect_slots(left, resume, out);
            collect_slots(right, resume, out);
        }
        PlanNode::DeepCut(dc) => {
            collect_side_slots(&dc.side_s, resume, out);
            collect_side_slots(&dc.side_t, resume, out);
        }
    }
}

fn collect_side_slots(sp: &SidePlan, resume: Option<&PlanCheckpoint>, out: &mut Vec<SlotInfo>) {
    match sp {
        SidePlan::Sweep(_) => out.push(SlotInfo {
            kind: "sweep",
            predicted: side_remaining(sp, resume),
        }),
        SidePlan::Peel { scalar, inner, .. } => {
            collect_slots(scalar, resume, out);
            collect_side_slots(inner, resume, out);
        }
    }
}

/// Renders one link id through the enclosing reduction maps, if any:
/// a merged link prints as its member originals joined by `+`.
fn render_id(e: EdgeId, origin: Option<&[Vec<EdgeId>]>) -> String {
    match origin.and_then(|m| m.get(e.index())) {
        Some(orig) if !orig.is_empty() => {
            let parts: Vec<String> = orig.iter().map(|o| o.0.to_string()).collect();
            parts.join("+")
        }
        _ => e.0.to_string(),
    }
}

/// Composes a child reduction map with the enclosing one, so nested
/// [`PlanNode::Reduce`] levels still render in the outermost (original) ids.
fn compose_origin(outer: Option<&[Vec<EdgeId>]>, inner: &[Vec<EdgeId>]) -> Vec<Vec<EdgeId>> {
    inner
        .iter()
        .map(|mids| match outer {
            None => mids.clone(),
            Some(o) => mids
                .iter()
                .flat_map(|m| o.get(m.index()).cloned().unwrap_or_else(|| vec![*m]))
                .collect(),
        })
        .collect()
}

fn render_node(node: &PlanNode, indent: usize, out: &mut String, origin: Option<&[Vec<EdgeId>]>) {
    let pad = "  ".repeat(indent);
    match node {
        PlanNode::Const { value, reason } => {
            out.push_str(&format!("{pad}const {value} ({reason})\n"));
        }
        PlanNode::Leaf(l) => {
            out.push_str(&format!(
                "{pad}leaf #{}: {} links ({} fallible), demand {}, ~{:.3e} configs\n",
                l.index,
                l.net.edge_count(),
                l.fallible,
                l.demand.demand,
                cost(node)
            ));
        }
        PlanNode::Preprocess { removed, child } => {
            out.push_str(&format!("{pad}preprocess: -{removed} irrelevant links\n"));
            render_node(child, indent + 1, out, origin);
        }
        PlanNode::SpReduce { stats, child } => {
            out.push_str(&format!(
                "{pad}sp-reduce: {} series, {} parallel, {} dangling, {} dropped\n",
                stats.series, stats.parallel, stats.dangling, stats.dropped
            ));
            render_node(child, indent + 1, out, origin);
        }
        PlanNode::Reduce {
            stats,
            origin: map,
            child,
        } => {
            out.push_str(&format!(
                "{pad}reduce: -{} irrelevant, -{} capacity-bound, {} clamped, {} merged, {} contracted ({} round{})\n",
                stats.relevance_removed,
                stats.bound_removed,
                stats.clamped,
                stats.merged,
                stats.contracted,
                stats.rounds,
                if stats.rounds == 1 { "" } else { "s" },
            ));
            let composed = compose_origin(origin, map);
            render_node(child, indent + 1, out, Some(&composed));
        }
        PlanNode::Bridge {
            cut,
            up,
            left,
            right,
        } => {
            let ids: Vec<String> = cut.iter().map(|e| render_id(*e, origin)).collect();
            out.push_str(&format!("{pad}bridge cut=[{}] up={up:.6}\n", ids.join(",")));
            // Side subproblems renumber links; the enclosing map does not
            // apply below a split.
            render_node(left, indent + 1, out, None);
            render_node(right, indent + 1, out, None);
        }
        PlanNode::Cut(c) => {
            let ids: Vec<String> = c.set.edges.iter().map(|e| render_id(*e, origin)).collect();
            out.push_str(&format!(
                "{pad}cut #{} [{}]: {} links, |D|={}, sides {}/{} links, ~{:.3e} configs\n",
                c.index,
                ids.join(","),
                c.set.edges.len(),
                c.assignments,
                c.set.side_s_edges,
                c.set.side_t_edges,
                cost(node)
            ));
        }
        PlanNode::DeepCut(dc) => {
            let ids: Vec<String> = dc.set.edges.iter().map(|e| render_id(*e, origin)).collect();
            out.push_str(&format!(
                "{pad}deep-cut [{}]: {} links, |D|={}, ~{:.3e} configs\n",
                ids.join(","),
                dc.set.edges.len(),
                dc.assignments.len(),
                cost(node)
            ));
            render_side(&dc.side_s, indent + 1, out);
            render_side(&dc.side_t, indent + 1, out);
        }
    }
}

fn render_side(sp: &SidePlan, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match sp {
        SidePlan::Sweep(sw) => {
            out.push_str(&format!(
                "{pad}sweep #{}: {} links, |D|={}, ~{:.3e} configs\n",
                sw.index,
                sw.side.net.edge_count(),
                sw.dn,
                side_cost(sp)
            ));
        }
        SidePlan::Peel { up, scalar, inner } => {
            out.push_str(&format!("{pad}peel up={up:.6}\n"));
            render_node(scalar, indent + 1, out, None);
            render_side(inner, indent + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::naive::reliability_naive;
    use netgraph::NetworkBuilder;

    /// A chain of `segments` triangles joined by bridges; unit capacities
    /// except bridge capacity 2 so demand 2 is routable end to end.
    fn chained_barbell(segments: usize, p: f64) -> (Network, FlowDemand) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let mut prev: Option<NodeId> = None;
        let mut first = None;
        let mut last = None;
        for _ in 0..segments {
            let n = b.add_nodes(3);
            b.add_edge(n[0], n[1], 2, p).unwrap();
            b.add_edge(n[1], n[2], 2, p).unwrap();
            b.add_edge(n[2], n[0], 2, p).unwrap();
            if let Some(prev) = prev {
                b.add_edge(prev, n[0], 2, p).unwrap();
            }
            if first.is_none() {
                first = Some(n[0]);
            }
            prev = Some(n[2]);
            last = Some(n[2]);
        }
        let net = b.build();
        (net, FlowDemand::new(first.unwrap(), last.unwrap(), 1))
    }

    /// Two sides — each a chain of three triangles joined by bridges,
    /// 11 links a side — joined through a 2-link parallel hub: the balanced
    /// cut is the hub pair (|D| = 2, no bridge), each side then peels at
    /// its own internal bridges, and the sides are large enough (2^11 flat
    /// configs each) that the deep split clears the acceptance gate's
    /// per-leaf setup charge instead of falling back to a flat cut.
    fn hub_barbell(p: f64) -> (Network, FlowDemand) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let side = |b: &mut NetworkBuilder| {
            let n = b.add_nodes(9);
            for t in 0..3 {
                let base = 3 * t;
                b.add_edge(n[base], n[base + 1], 2, p).unwrap();
                b.add_edge(n[base + 1], n[base + 2], 2, p).unwrap();
                b.add_edge(n[base + 2], n[base], 2, p).unwrap();
                if t > 0 {
                    b.add_edge(n[base - 1], n[base], 2, p).unwrap();
                }
            }
            (n[0], n[8])
        };
        let (s, left_end) = side(&mut b);
        let (right_start, t) = side(&mut b);
        b.add_edge(left_end, right_start, 1, p).unwrap();
        b.add_edge(left_end, right_start, 1, p).unwrap();
        let net = b.build();
        (net, FlowDemand::new(s, t, 1))
    }

    fn plan_for_k(
        net: &Network,
        demand: FlowDemand,
        opts: &CalcOptions,
        max_k: usize,
    ) -> DecompositionPlan {
        let set = find_bottleneck_set(net, demand.source, demand.sink, max_k).unwrap();
        DecompositionPlan::plan_on_set(net, demand, &set, opts, max_k).unwrap()
    }

    /// On the chained barbell the balanced `k = 3` search prefers a 2-link
    /// cut (a `Cut` engine leaf); the `k = 1` search finds the joining
    /// bridge and recurses. Tests cover both roots.
    fn plan_for(net: &Network, demand: FlowDemand, opts: &CalcOptions) -> DecompositionPlan {
        plan_for_k(net, demand, opts, 3)
    }

    fn run_complete(plan: &DecompositionPlan, opts: &CalcOptions) -> f64 {
        match plan.execute(opts, None).unwrap() {
            PlanOutcome::Complete { reliability, .. } => reliability,
            PlanOutcome::Partial { .. } => panic!("unlimited run must complete"),
        }
    }

    #[test]
    fn plan_matches_naive_on_chained_barbells() {
        for segments in 2..=4 {
            let (net, demand) = chained_barbell(segments, 0.1);
            let opts = CalcOptions::default();
            let exact = reliability_naive(&net, demand, &opts).unwrap();
            for max_k in [1, 3] {
                let plan = plan_for_k(&net, demand, &opts, max_k);
                let r = run_complete(&plan, &opts);
                assert!(
                    (r - exact).abs() < 1e-12,
                    "{segments} segments, k={max_k}: plan {r} vs naive {exact}"
                );
            }
        }
    }

    #[test]
    fn plan_recursion_shrinks_predicted_cost() {
        let (net, demand) = chained_barbell(4, 0.1);
        let opts = CalcOptions::default();
        let plan = plan_for_k(&net, demand, &opts, 1);
        assert!(plan.leaf_count() >= 2, "expected a recursive split");
        let flat = CalcOptions {
            max_depth: 0,
            ..CalcOptions::default()
        };
        let one_level = plan_for_k(&net, demand, &flat, 1);
        assert!(
            plan.predicted_cost() < one_level.predicted_cost(),
            "recursive {} vs one-level {}",
            plan.predicted_cost(),
            one_level.predicted_cost()
        );
    }

    #[test]
    fn max_depth_zero_degenerates_to_one_level_cut() {
        let (net, demand) = chained_barbell(2, 0.2);
        let opts = CalcOptions {
            max_depth: 0,
            ..CalcOptions::default()
        };
        let plan = plan_for(&net, demand, &opts);
        assert!(
            matches!(plan.root_node(), PlanNode::Cut(_)),
            "depth 0 must emit the one-level engine"
        );
        let r = run_complete(&plan, &opts);
        let exact = reliability_naive(&net, demand, &opts).unwrap();
        assert!((r - exact).abs() < 1e-12);
    }

    #[test]
    fn render_names_the_nodes() {
        let (net, demand) = chained_barbell(3, 0.1);
        let opts = CalcOptions::default();
        let plan = plan_for_k(&net, demand, &opts, 1);
        let text = plan.render();
        assert!(text.contains("bridge"), "{text}");
        assert!(text.contains("leaf #"), "{text}");
        assert!(text.contains("configs"), "{text}");
    }

    #[test]
    fn budgeted_execution_resumes_bit_identically() {
        let (net, demand) = chained_barbell(3, 0.15);
        let opts = CalcOptions::default();
        let plan = plan_for(&net, demand, &opts);
        let exact = run_complete(&plan, &opts);
        let tiny = CalcOptions {
            budget: Budget {
                max_configs: Some(3),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        };
        let mut ck = match plan.execute(&tiny, None).unwrap() {
            PlanOutcome::Partial {
                r_low,
                r_high,
                checkpoint,
                ..
            } => {
                assert!(r_low <= exact + 1e-15 && exact <= r_high + 1e-15);
                checkpoint
            }
            PlanOutcome::Complete { .. } => panic!("tiny budget must interrupt"),
        };
        let mut finished = None;
        for _ in 0..100_000 {
            match plan.execute(&tiny, Some(&ck)).unwrap() {
                PlanOutcome::Partial {
                    r_low,
                    r_high,
                    checkpoint,
                    ..
                } => {
                    assert!(r_low <= exact + 1e-15 && exact <= r_high + 1e-15);
                    ck = checkpoint;
                }
                PlanOutcome::Complete { reliability, .. } => {
                    finished = Some(reliability);
                    break;
                }
            }
        }
        let resumed = finished.expect("resume loop must finish");
        assert_eq!(
            resumed.to_bits(),
            exact.to_bits(),
            "serial resume must be bit-identical"
        );
    }

    #[test]
    fn execute_rejects_a_foreign_checkpoint_shape() {
        let (net, demand) = chained_barbell(3, 0.1);
        let opts = CalcOptions::default();
        let plan = plan_for(&net, demand, &opts);
        let ck = PlanCheckpoint {
            root_cut: plan.root_set().edges.clone(),
            root_max_k: plan.max_k(),
            max_depth: plan.max_depth(),
            recursive_cut_sides: plan.recursive_cut_sides(),
            hybrid: false,
            shape: plan.shape() ^ 1,
            shares: Vec::new(),
            leaves: vec![PlanLeafState::Fresh; plan.leaf_count()],
        };
        assert!(plan.execute(&opts, Some(&ck)).is_err());
    }

    #[test]
    fn plan_matches_naive_on_a_directed_chain() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(6);
        // diamond -> bridge -> diamond
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[2], 1, 0.2).unwrap();
        b.add_edge(n[1], n[2], 1, 0.1).unwrap();
        b.add_edge(n[2], n[3], 2, 0.05).unwrap();
        b.add_edge(n[3], n[4], 1, 0.1).unwrap();
        b.add_edge(n[3], n[5], 1, 0.2).unwrap();
        b.add_edge(n[4], n[5], 1, 0.1).unwrap();
        let net = b.build();
        let demand = FlowDemand::new(n[0], n[5], 1);
        let opts = CalcOptions::default();
        let plan = plan_for(&net, demand, &opts);
        let r = run_complete(&plan, &opts);
        let exact = reliability_naive(&net, demand, &opts).unwrap();
        assert!((r - exact).abs() < 1e-12, "plan {r} vs naive {exact}");
    }

    #[test]
    fn plan_matches_naive_at_demand_two() {
        let (net, mut demand) = chained_barbell(3, 0.1);
        demand.demand = 2;
        let opts = CalcOptions::default();
        let plan = plan_for(&net, demand, &opts);
        let r = run_complete(&plan, &opts);
        let exact = reliability_naive(&net, demand, &opts).unwrap();
        assert!((r - exact).abs() < 1e-12, "plan {r} vs naive {exact}");
    }

    #[test]
    fn deep_cut_plan_matches_flat_and_shrinks_cost() {
        let (net, demand) = hub_barbell(0.1);
        let opts = CalcOptions::default();
        let plan = plan_for_k(&net, demand, &opts, 2);
        assert!(
            matches!(plan.root_node(), PlanNode::DeepCut(_)),
            "hub barbell must deep-split: {}",
            plan.render()
        );
        assert!(
            plan.leaf_count() >= 3,
            "peeled sides must add slots: {}",
            plan.render()
        );
        // The PR 5 planner (recursive cut sides off) sweeps the same cut
        // whole; the deep plan must agree with it (the flat path itself is
        // naive-validated on smaller instances across the planner suites —
        // this fixture's 2^24 naive sweep is out of unit-test range) and
        // predict less work even after the per-leaf setup charge.
        let pr5 = CalcOptions {
            recursive_cut_sides: false,
            ..CalcOptions::default()
        };
        let flat = plan_for_k(&net, demand, &pr5, 2);
        assert!(
            matches!(flat.root_node(), PlanNode::Cut(_)),
            "with recursion off the root must stay a plain cut"
        );
        let rf = run_complete(&flat, &pr5);
        let r = run_complete(&plan, &opts);
        assert!((r - rf).abs() < 1e-12, "deep plan {r} vs flat {rf}");
        assert!(
            plan.predicted_cost() < flat.predicted_cost(),
            "deep {} vs flat {}",
            plan.predicted_cost(),
            flat.predicted_cost()
        );
    }

    #[test]
    fn deep_budgeted_execution_resumes_bit_identically() {
        let (net, demand) = hub_barbell(0.15);
        let opts = CalcOptions::default();
        let plan = plan_for_k(&net, demand, &opts, 2);
        assert!(matches!(plan.root_node(), PlanNode::DeepCut(_)));
        let exact = run_complete(&plan, &opts);
        let tiny = CalcOptions {
            budget: Budget {
                max_configs: Some(2),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        };
        let mut ck = match plan.execute(&tiny, None).unwrap() {
            PlanOutcome::Partial {
                r_low,
                r_high,
                checkpoint,
                ..
            } => {
                assert!(r_low <= exact + 1e-15 && exact <= r_high + 1e-15);
                checkpoint
            }
            PlanOutcome::Complete { .. } => panic!("tiny budget must interrupt"),
        };
        let mut finished = None;
        for _ in 0..100_000 {
            match plan.execute(&tiny, Some(&ck)).unwrap() {
                PlanOutcome::Partial {
                    r_low,
                    r_high,
                    checkpoint,
                    ..
                } => {
                    assert!(
                        r_low <= exact + 1e-15 && exact <= r_high + 1e-15,
                        "[{r_low}, {r_high}] must enclose {exact}"
                    );
                    ck = checkpoint;
                }
                PlanOutcome::Complete { reliability, .. } => {
                    finished = Some(reliability);
                    break;
                }
            }
        }
        let resumed = finished.expect("resume loop must finish");
        assert_eq!(
            resumed.to_bits(),
            exact.to_bits(),
            "serial deep resume must be bit-identical"
        );
    }

    #[test]
    fn parallel_deep_execution_agrees_with_serial() {
        let (net, demand) = hub_barbell(0.12);
        let serial = CalcOptions::default();
        let parallel = CalcOptions {
            parallel: true,
            ..CalcOptions::default()
        };
        let plan = plan_for_k(&net, demand, &serial, 2);
        assert!(matches!(plan.root_node(), PlanNode::DeepCut(_)));
        let rs = run_complete(&plan, &serial);
        let rp = run_complete(&plan, &parallel);
        assert!(
            (rs - rp).abs() < 1e-12,
            "parallel {rp} vs serial {rs} must agree"
        );
    }

    #[test]
    fn partial_runs_report_budget_shares() {
        let (net, demand) = hub_barbell(0.1);
        let opts = CalcOptions::default();
        let plan = plan_for_k(&net, demand, &opts, 2);
        let tiny = CalcOptions {
            budget: Budget {
                max_configs: Some(2),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        };
        match plan.execute(&tiny, None).unwrap() {
            PlanOutcome::Partial {
                checkpoint, slots, ..
            } => {
                assert_eq!(checkpoint.shares.len(), plan.leaf_count());
                let sum: f64 = checkpoint.shares.iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "fresh shares must partition the budget, got {sum}"
                );
                assert_eq!(slots.len(), plan.leaf_count());
                assert!(slots.iter().any(|s| s.kind == "sweep"));
                for s in &slots {
                    assert!((s.share - checkpoint.shares[s.index]).abs() < 1e-15);
                    assert!(s.predicted >= 0.0);
                }
            }
            PlanOutcome::Complete { .. } => panic!("tiny budget must interrupt"),
        }
    }

    /// A binary triangle joined by a binary bridge to a side holding a
    /// 3-state link: the planner bridges at the cut and the multi-state
    /// side becomes a scalar leaf swept mixed-radix.
    fn degraded_side_net() -> (Network, FlowDemand) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(5);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap();
        b.add_edge(n[1], n[2], 2, 0.1).unwrap();
        b.add_edge(n[2], n[0], 2, 0.1).unwrap();
        b.add_edge(n[2], n[3], 2, 0.2).unwrap(); // binary bridge
        b.add_spectrum_edge(n[3], n[4], &[(0, 0.2), (1, 0.3), (2, 0.5)])
            .unwrap();
        b.add_edge(n[3], n[4], 1, 0.4).unwrap();
        let net = b.build();
        // demand 2 keeps the spectrum's states distinguishable — at demand 1
        // the state-merge pass would (correctly) collapse it to binary
        (net, FlowDemand::new(n[0], n[4], 2))
    }

    fn count_multistate_leaves(node: &PlanNode, found: &mut usize) {
        match node {
            PlanNode::Leaf(l) if l.net.has_multistate() => {
                *found += 1;
                let expected: f64 = netgraph::StateExpansion::build(&l.net)
                    .unwrap()
                    .radices()
                    .iter()
                    .fold(1.0, |a, &r| a * r as f64);
                assert_eq!(l.configs, expected, "leaf cost must be the radix product");
            }
            PlanNode::Leaf(_) => {}
            PlanNode::Preprocess { child, .. }
            | PlanNode::SpReduce { child, .. }
            | PlanNode::Reduce { child, .. } => count_multistate_leaves(child, found),
            PlanNode::Bridge { left, right, .. } => {
                count_multistate_leaves(left, found);
                count_multistate_leaves(right, found);
            }
            _ => {}
        }
    }

    #[test]
    fn multistate_side_becomes_scalar_leaf_and_matches_naive() {
        let (net, demand) = degraded_side_net();
        let opts = CalcOptions::default();
        let plan = plan_for_k(&net, demand, &opts, 1);
        // no Cut/DeepCut machinery may touch the spectrum side
        let mut multistate_leaves = 0;
        count_multistate_leaves(plan.root_node(), &mut multistate_leaves);
        assert!(
            multistate_leaves >= 1,
            "the spectrum side must survive into a scalar leaf:\n{}",
            plan.render()
        );
        let exact = reliability_naive(&net, demand, &opts).unwrap();
        let r = run_complete(&plan, &opts);
        assert!((r - exact).abs() < 1e-12, "plan {r} vs naive {exact}");
    }

    #[test]
    fn multistate_net_with_nonsingleton_cut_sweeps_whole() {
        // double diamond with a 2-link binary cut, one side link multi-state:
        // |D| > 1, so split_node must refuse to decompose and sweep whole
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap();
        b.add_edge(n[0], n[2], 2, 0.1).unwrap();
        b.add_edge(n[1], n[3], 2, 0.1).unwrap(); // cut
        b.add_edge(n[2], n[4], 2, 0.1).unwrap(); // cut
        b.add_spectrum_edge(n[3], n[5], &[(0, 0.1), (1, 0.4), (2, 0.5)])
            .unwrap();
        b.add_edge(n[4], n[5], 2, 0.1).unwrap();
        let net = b.build();
        let demand = FlowDemand::new(n[0], n[5], 2);
        let opts = CalcOptions::default();
        let set = find_bottleneck_set(&net, demand.source, demand.sink, 2).unwrap();
        assert!(set.edges.iter().all(|&e| net.spectrum(e).is_none()));
        let plan = DecompositionPlan::plan_on_set(&net, demand, &set, &opts, 2).unwrap();
        let exact = reliability_naive(&net, demand, &opts).unwrap();
        let r = run_complete(&plan, &opts);
        assert!((r - exact).abs() < 1e-12, "plan {r} vs naive {exact}");
    }

    #[test]
    fn binary_leaf_configs_unchanged() {
        let (net, demand) = chained_barbell(2, 0.1);
        let opts = CalcOptions::default();
        let plan = plan_for_k(&net, demand, &opts, 1);
        fn walk(node: &PlanNode) {
            match node {
                PlanNode::Leaf(l) => {
                    assert_eq!(l.configs, (1u64 << l.fallible.min(63)) as f64);
                }
                PlanNode::Preprocess { child, .. }
                | PlanNode::SpReduce { child, .. }
                | PlanNode::Reduce { child, .. } => walk(child),
                PlanNode::Bridge { left, right, .. } => {
                    walk(left);
                    walk(right);
                }
                _ => {}
            }
        }
        walk(plan.root_node());
    }
}
