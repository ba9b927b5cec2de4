//! # maxflow — the max-flow oracle substrate
//!
//! The reliability algorithms decide, for every failure configuration, whether
//! the surviving subgraph admits an s–t flow of value ≥ `d`. This crate is
//! that oracle. It provides:
//!
//! * [`FlowGraph`] — a mutable residual graph with paired forward/backward
//!   arcs, cheap capacity reset (so one graph is reused across the exponential
//!   configuration sweep without reallocation), and per-network-edge arc
//!   handles for masking out failed links;
//! * [`build_flow`] / [`build_flow_multi`] — lowering from a
//!   [`netgraph::Network`] (with optional super-source/super-sink terminals,
//!   used for the per-assignment multi-sink demands of Section III-C);
//! * five solvers behind the [`MaxFlowSolver`] trait — [`Dinic`] (default),
//!   [`EdmondsKarp`], [`BfsFordFulkerson`] (one augmenting path per unit of
//!   flow, the `O(d·|E|)` choice matching the paper's constant-`d` analysis),
//!   [`PushRelabel`] (FIFO with gap relabelling), and [`CapacityScaling`];
//! * all solvers support an early-exit `limit`: augmentation stops as soon as
//!   `limit` units are routed, since the reliability calculation only ever
//!   asks "is max-flow ≥ d?";
//! * [`min_cut`] — minimum s–t cut extraction from a residual graph;
//! * monotonicity witnesses — after a solve, [`NetworkFlow::flow_support_bits`]
//!   (feasible: the edges carrying flow) and
//!   [`NetworkFlow::residual_cut_bits`] (infeasible: the edges crossing the
//!   saturated cut) turn one solver call into a certificate
//!   ([`NetworkFlow::certificate`]) that classifies whole families of related
//!   failure configurations without solving again;
//! * [`CertCache`] — the bounded certificate store the exact sweeps and the
//!   Monte-Carlo samplers consult before every solve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity_scaling;
pub mod certcache;
pub mod dinic;
pub mod edmonds_karp;
pub mod ford_fulkerson;
pub mod graph;
pub mod incremental;
pub mod lower;
pub mod mincut;
pub mod prober;
pub mod push_relabel;
pub mod solver;
pub mod workspace;

pub use capacity_scaling::CapacityScaling;
pub use certcache::{
    contradiction, Block, BlockOrder, CertCache, SolveCert, CERTIFICATE_CACHE_SIZE,
};
pub use dinic::Dinic;
pub use edmonds_karp::EdmondsKarp;
pub use ford_fulkerson::BfsFordFulkerson;
pub use graph::{ArcId, FlowGraph};
pub use incremental::{RepairStats, WarmState};
pub use lower::{build_flow, build_flow_multi, NetworkFlow};
pub use mincut::min_cut;
pub use prober::CutProber;
pub use push_relabel::PushRelabel;
pub use solver::{max_flow_at_least, MaxFlowSolver, SolverKind};
pub use workspace::Workspace;
