//! Tuning knobs shared by the algorithms.

use maxflow::SolverKind;
use montecarlo::{EstimatorKind, McSettings};

use crate::accumulate::AccumulationMethod;
use crate::assign::AssignmentModel;
use crate::budget::Budget;

/// Exhaustive enumerations (the naive sweep, its plan leaves and the
/// reliability polynomial) refuse more than this many fallible links with
/// [`ReliabilityError::TooManyEdges`](crate::ReliabilityError::TooManyEdges).
pub const MAX_ENUM_EDGES: usize = 30;

/// Bottleneck side sweeps refuse sides with more than this many links with
/// [`ReliabilityError::SideTooLarge`](crate::ReliabilityError::SideTooLarge).
pub const MAX_SIDE_EDGES: usize = 26;

/// Bottleneck splits refuse cuts of more than this many links with
/// [`ReliabilityError::TooManyEdges`](crate::ReliabilityError::TooManyEdges):
/// a split tabulates the assignments each of the `2^k` cut configurations
/// supports.
pub const MAX_CUT_EDGES: usize = 16;

/// Factoring refuses networks with more than this many links with
/// [`ReliabilityError::TooManyEdges`](crate::ReliabilityError::TooManyEdges):
/// its flow-based pruning lets it reach past [`MAX_ENUM_EDGES`].
pub const MAX_FACTORING_EDGES: usize = 40;

/// Options shared by the reliability algorithms.
///
/// The enumeration bounds are constants ([`MAX_ENUM_EDGES`],
/// [`MAX_SIDE_EDGES`], [`MAX_CUT_EDGES`], [`MAX_FACTORING_EDGES`]); side sweeps always skip the
/// assignments a side cannot realize with every link alive (exact, by
/// monotonicity of flow in link availability).
#[derive(Clone, Debug)]
pub struct CalcOptions {
    /// Max-flow solver used for all feasibility oracles.
    pub solver: SolverKind,
    /// Refuse bottleneck splits with more assignments than this, with
    /// [`ReliabilityError::TooManyAssignments`](crate::ReliabilityError::TooManyAssignments)
    /// (masks are `u32`-backed, so the hard ceiling is 31; the default is
    /// lower because the accumulation cost grows with `2^|D|`).
    pub max_assignments: usize,
    /// Parallelize configuration enumeration with rayon, and sweep the two
    /// sides of a split concurrently.
    pub parallel: bool,
    /// Accumulation variant (Section IV); all three produce the same value.
    pub accumulation: AccumulationMethod,
    /// Assignment model. The default is the exact net-crossing extension:
    /// the paper's forward-only model silently *undercounts* whenever the
    /// bottleneck admits reverse flow and the optimal routing weaves across
    /// the cut — which happens on ordinary graphs when the most balanced cut
    /// is "diagonal" (see `tests/model_gap.rs`). Use
    /// [`CalcOptions::paper_faithful`] for the paper's model.
    pub assignment_model: AssignmentModel,
    /// Treat links with `p(e) = 0` as always alive instead of enumerating
    /// them (exact; factors `2^{#perfect}` out of the naive sweep).
    pub factor_perfect_links: bool,
    /// Cache monotonicity certificates (flow supports and saturated cuts)
    /// during configuration sweeps and consult them before the solver. Exact:
    /// a cache hit returns the verdict the solver would. Each cache keeps a
    /// fixed number of certificates per kind. An ablation of the exact sweeps
    /// only: the Monte-Carlo samplers always consult their per-batch cache.
    pub certificate_cache: bool,
    /// Carry a warm feasible flow across configuration steps (Gray-code
    /// steps in naive sweeps, counting steps in side sweeps), repairing it
    /// per flipped link instead of re-solving from scratch
    /// (see [`maxflow::incremental`]). Exact: verdicts — and therefore all
    /// sums, bounds, and checkpoints — are identical with it on or off.
    pub incremental: bool,
    /// Sweeps whose total configuration count falls below this threshold run
    /// serially even when [`parallel`](Self::parallel) is set — below ~10k
    /// configs the fork/join and per-worker clone overhead outweighs the
    /// parallel speedup.
    pub parallel_threshold: u64,
    /// Work/time limits for the run. The default is unlimited; with any
    /// limit set, budget-aware entry points stop at a clean cursor and
    /// return a rigorous `[R_low, R_high]` interval plus a resume
    /// checkpoint instead of running to completion (see [`crate::budget`]).
    pub budget: Budget,
    /// Maximum recursion depth of the decomposition planner
    /// ([`crate::plan`]): how many nested splits the planner may stack
    /// before it stops looking for structure and emits a leaf. `0` disables
    /// recursive decomposition entirely: a bottleneck strategy runs the one
    /// split on its root cut as a single `Cut` slot, which is what
    /// [`reliability_bottleneck`](crate::reliability_bottleneck) runs. Depth
    /// is consumed only by recursive splits, so the default comfortably
    /// covers any chain the enumeration bounds could accept.
    pub max_depth: usize,
    /// Let the planner re-enter itself on the sides of multi-assignment
    /// `Cut` nodes (not only single-assignment bridges): a side is *peeled*
    /// at an internal cut that separates its terminal from every attach
    /// point with a unique assignment, factoring the side spectrum into a
    /// scalar subtree times a smaller side. Off, every multi-assignment cut
    /// is swept whole.
    pub recursive_cut_sides: bool,
    /// Hybrid exact/statistical plan execution: allow the plan interpreter
    /// to place a Monte-Carlo estimator at a scalar leaf (naive or flat cut)
    /// whose remaining predicted cost exceeds the configuration allowance
    /// its subtree was apportioned, instead of starting an exact sweep that
    /// cannot finish. The result is then a labelled *statistical* interval
    /// rather than a certified value; with the knob off (the default) plans
    /// are always certified-or-partial. Requires a tracked configuration
    /// budget (`budget.max_configs`) — without an allowance there is no
    /// share to compare against and every leaf stays exact.
    pub hybrid: bool,
    /// Monte-Carlo settings template for hybrid plan leaves: base seed,
    /// batch size, stopping target, estimator. Each sampled leaf derives its
    /// own seed from the base via a plan-leaf stream domain keyed by the
    /// leaf's DFS slot index, and [`EstimatorKind::Auto`] is resolved *per
    /// leaf* (dagger when that leaf's subnetwork has a strata-sized
    /// bottleneck, permutation otherwise). Ignored unless
    /// [`hybrid`](Self::hybrid) is set.
    pub hybrid_mc: McSettings,
    /// Run the structural reduction pipeline ([`crate::reduce`]) — capacity-
    /// factor pruning, forced-link conditioning, parallel-link merging — on
    /// the instance before planning or sweeping. Exact: the reduced instance
    /// has the identical reliability; reports and checkpoints carry a
    /// reconstruction map back to original link ids. `--no-reduce` on the
    /// CLI turns it off.
    pub reduce: bool,
}

impl Default for CalcOptions {
    fn default() -> Self {
        CalcOptions {
            solver: SolverKind::Dinic,
            max_assignments: 20,
            parallel: false,
            accumulation: AccumulationMethod::Complement,
            assignment_model: AssignmentModel::Net,
            factor_perfect_links: true,
            certificate_cache: true,
            incremental: true,
            parallel_threshold: 10_000,
            budget: Budget::unlimited(),
            max_depth: 64,
            recursive_cut_sides: true,
            hybrid: false,
            hybrid_mc: McSettings {
                estimator: EstimatorKind::Auto,
                ..McSettings::default()
            },
            reduce: true,
        }
    }
}

impl CalcOptions {
    /// Default options with parallel enumeration enabled.
    pub fn parallel() -> Self {
        CalcOptions {
            parallel: true,
            ..Default::default()
        }
    }

    /// Paper-faithful options: BFS Ford–Fulkerson oracle, direct
    /// inclusion–exclusion, forward-only assignments, every link enumerated,
    /// every configuration solved.
    pub fn paper_faithful() -> Self {
        CalcOptions {
            solver: SolverKind::BfsFordFulkerson,
            accumulation: AccumulationMethod::PaperDirect,
            assignment_model: AssignmentModel::ForwardOnly,
            factor_perfect_links: false,
            parallel: false,
            certificate_cache: false,
            incremental: false,
            reduce: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = CalcOptions::default();
        assert!(o.max_assignments <= 31, "assignment masks are u32");
        assert!(!o.parallel);
        assert_eq!(
            o.assignment_model,
            AssignmentModel::Net,
            "default must be exact"
        );
    }

    #[test]
    fn paper_faithful_uses_direct_accumulation() {
        let o = CalcOptions::paper_faithful();
        assert_eq!(o.accumulation, AccumulationMethod::PaperDirect);
        assert_eq!(o.assignment_model, AssignmentModel::ForwardOnly);
        assert_eq!(o.solver, SolverKind::BfsFordFulkerson);
        assert!(!o.factor_perfect_links);
        assert!(
            !o.certificate_cache,
            "paper-faithful runs solve every config"
        );
    }

    #[test]
    fn hybrid_is_off_by_default_and_auto_resolved() {
        let o = CalcOptions::default();
        assert!(!o.hybrid, "hybrid leaves are opt-in");
        assert_eq!(
            o.hybrid_mc.estimator,
            EstimatorKind::Auto,
            "hybrid leaves resolve their estimator per leaf"
        );
    }

    #[test]
    fn certificate_cache_is_on_by_default() {
        let o = CalcOptions::default();
        assert!(o.certificate_cache);
    }
}
