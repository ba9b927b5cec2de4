//! # flowrel-core — reliability of flow networks with bottleneck links
//!
//! Implementation of *Reliability Calculation of P2P Streaming Systems with
//! Bottleneck Links* (S. Fujita, IEEE IPDPSW 2017).
//!
//! Given a network `G = (V, E)` whose links have capacities `c(e)` and
//! independent failure probabilities `p(e)`, and a flow demand
//! `D = (s, t, d)`, the **reliability** is the probability that the random
//! subgraph of surviving links admits an s–t flow of value at least `d`.
//!
//! The crate provides three exact algorithms plus a strategy-picking
//! calculator:
//!
//! * [`naive::reliability_naive`] — enumerate all `2^|E|` failure
//!   configurations (the paper's baseline, Fig. 1);
//! * the paper's main contribution, the bottleneck split: decomposition
//!   along a set of α-bottleneck links, per-side realization arrays
//!   (Section III-C), and inclusion–exclusion accumulation over supported
//!   assignments (Section IV). One body runs it ([`spectrum`]), and the
//!   plan interpreter ([`plan`]) runs that body at every split, budgeted
//!   and checkpointed. [`algorithm::reliability_bottleneck`] is the split on
//!   one given cut: a depth-0 plan. Recursive plans split the sides again;
//!   the bridge split of Fig. 2 / Eq. 1 is the `k = 1` case, which the
//!   planner runs as a [`PlanNode::Bridge`] and [`Strategy::BottleneckAuto`]
//!   with `max_k: 1` selects;
//! * [`factoring::reliability_factoring`] — classic conditioning with
//!   flow-based pruning, an additional exact comparator, run as a walk
//!   (nearest the terminals first) on the sweep driver that closes the
//!   subcubes its two bounds decide;
//! * [`calculator::ReliabilityCalculator`] — picks a strategy automatically
//!   and reports what it did.
//!
//! Every exact enumeration except the reliability polynomial's runs through
//! the one sweep driver ([`sweep`]). The naive sweep and the split body are
//! generic over the [`weight::Weight`] abstraction and run in `f64` (with
//! compensated summation in the naive sweep and factoring) and in exact
//! [`exactmath::BigRational`] ([`naive::reliability_naive_exact`],
//! [`algorithm::reliability_bottleneck_exact`]), so the exact form validates
//! the float form down to the last operation. The plan interpreter's own
//! combinators (bridges, peels, interval combination) are `f64` only, and
//! factoring's public entry points too; tests validate them against the
//! exact naive sweep, factoring's walk at [`exactmath::BigRational`] as
//! well.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulate;
pub mod algorithm;
pub mod assign;
pub mod bottleneck;
pub mod bounds;
pub mod budget;
pub mod calculator;
pub mod checkpoint;
pub mod decompose;
pub mod demand;
pub mod error;
pub mod factoring;
pub mod fnet;
pub mod importance;
pub mod naive;
pub mod nodefail;
pub mod options;
pub mod oracle;
pub mod plan;
pub mod polynomial;
pub mod preprocess;
pub mod reduce;
pub mod spectrum;
pub mod spreduce;
pub mod sweep;
pub mod table;
pub mod weight;

pub use accumulate::{combine_interval, AccumulationMethod};
pub use algorithm::{
    reliability_bottleneck, reliability_bottleneck_exact, BottleneckReport, PlanSlotReport,
};
pub use assign::{enumerate_assignments, Assignment, AssignmentModel};
pub use bottleneck::{
    find_all_bottleneck_sets, find_bottleneck_set, validate_bottleneck_set, BottleneckSet,
};
pub use bounds::{enumerate_minimal_cuts, enumerate_simple_paths, esary_proschan_bounds};
pub use budget::{Budget, BudgetSentinel, CancelToken};
pub use calculator::{Outcome, PartialReport, ReliabilityCalculator, ReliabilityReport, Strategy};
pub use checkpoint::{
    instance_fingerprint, Checkpoint, CheckpointKind, NaiveCheckpoint, PlanCheckpoint,
    PlanLeafState, SideCheckpoint, SweepCursor,
};
pub use decompose::{decompose, Decomposition, Side};
pub use demand::FlowDemand;
pub use error::ReliabilityError;
pub use factoring::{reliability_factoring, reliability_factoring_anytime};
pub use fnet::NetFile;
pub use importance::{birnbaum_importance, LinkImportance};
pub use maxflow::{CertCache, SolveCert};
pub use montecarlo::{
    EstimatorKind, McBudget, McCheckpoint, McError, McOutcome, McReport, McSettings, StopTarget,
};
pub use naive::{
    reliability_naive, reliability_naive_anytime, reliability_naive_anytime_on,
    reliability_naive_exact, reliability_naive_weighted, reliability_naive_with_stats,
    NaiveOutcome,
};
pub use nodefail::{split_node_failures, NodeSplit};
pub use options::CalcOptions;
pub use oracle::{DemandOracle, SideOracle};
pub use plan::{
    CutNode, DecompositionPlan, DeepCutNode, LeafNode, PlanNode, PlanOutcome, SidePlan, SweepNode,
};
pub use polynomial::{reliability_polynomial, ReliabilityPolynomial};
pub use preprocess::{relevance_reduce, RelevantNetwork};
pub use reduce::{reduce, ReduceStats, Reduction};
pub use spectrum::RealizationSpectrum;
pub use spreduce::{reduce_unit_demand, ReducedNetwork, ReductionStats};
pub use sweep::{sweep_threads, SweepConfig, SweepStats};
pub use table::RealizationTable;
pub use weight::{edge_weights, edge_weights_exact, Weight};
