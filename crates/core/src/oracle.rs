//! Flow-feasibility oracles over failure configurations.

use maxflow::incremental::{RepairStats, WarmState};
use maxflow::{build_flow, build_flow_multi, NetworkFlow, SolveCert, SolverKind};
use netgraph::{EdgeMask, Network, NodeId};

use crate::assign::Assignment;
use crate::decompose::Side;
use crate::error::ReliabilityError;

/// Runs one feasibility solve and, when asked, extracts the monotonicity
/// certificate the verdict carries (shared by both oracles).
fn solve_with_cert(
    nf: &mut NetworkFlow,
    solver: SolverKind,
    mask: EdgeMask,
    required: u64,
    want_cert: bool,
) -> (bool, SolveCert) {
    nf.apply_mask(mask);
    let ok = solver.solve(&mut nf.graph, nf.source, nf.sink, required) >= required;
    if !want_cert {
        return (ok, SolveCert::None);
    }
    (ok, nf.certificate(ok, required))
}

/// As [`solve_with_cert`], but warm-starting from `warm`'s maintained flow
/// (see [`maxflow::incremental`]); exact either way.
fn warm_solve_with_cert(
    nf: &mut NetworkFlow,
    warm: &mut WarmState,
    solver: SolverKind,
    mask: EdgeMask,
    required: u64,
    want_cert: bool,
) -> (bool, SolveCert) {
    let ok = warm.admits(nf, solver, required, mask.bits(), want_cert);
    if !want_cert {
        return (ok, SolveCert::None);
    }
    (ok, nf.certificate(ok, required))
}

/// Answers "does this failure configuration admit the s–t demand?" for one
/// fixed network, reusing a single lowered [`NetworkFlow`] across the
/// exponential configuration sweep.
#[derive(Clone)]
pub struct DemandOracle {
    nf: NetworkFlow,
    solver: SolverKind,
    demand: u64,
    caps: Vec<u64>,
    warm: Option<WarmState>,
}

impl DemandOracle {
    /// Lowers `net` for the `s → t` demand `d`. The incremental warm-start
    /// path is off by default; enable it with
    /// [`set_incremental`](Self::set_incremental).
    pub fn new(net: &Network, s: NodeId, t: NodeId, demand: u64, solver: SolverKind) -> Self {
        let caps = net.edges().iter().map(|e| e.capacity).collect();
        DemandOracle {
            nf: build_flow(net, s, t),
            solver,
            demand,
            caps,
            warm: None,
        }
    }

    /// The demand being tested.
    pub fn demand(&self) -> u64 {
        self.demand
    }

    /// Per-link capacities, indexed by edge id (for cut certificates).
    pub fn edge_capacities(&self) -> &[u64] {
        &self.caps
    }

    /// Enables or disables the warm-start incremental solve path. Only
    /// networks with ≤ 64 edges can use it (the sweeps cap enumeration well
    /// below that); requesting it on a larger network is a silent no-op.
    pub fn set_incremental(&mut self, on: bool) {
        if on && self.caps.len() <= 64 {
            if self.warm.is_none() {
                self.warm = Some(WarmState::new());
            }
        } else {
            self.warm = None;
        }
    }

    /// Drops the maintained warm flow (if any); the next query re-solves
    /// from scratch. Call at sweep chunk boundaries and on resume so results
    /// never depend on warm state carried across scheduling decisions.
    pub fn invalidate_warm(&mut self) {
        if let Some(w) = &mut self.warm {
            w.invalidate();
        }
    }

    /// Returns and resets the incremental-repair telemetry.
    pub fn take_repair_stats(&mut self) -> RepairStats {
        self.warm
            .as_mut()
            .map(WarmState::take_stats)
            .unwrap_or_default()
    }

    /// Does the configuration `mask` (over the network's edges) admit `d`?
    pub fn admits(&mut self, mask: EdgeMask) -> bool {
        if self.demand == 0 {
            return true;
        }
        if let Some(w) = &mut self.warm {
            return w.admits(&mut self.nf, self.solver, self.demand, mask.bits(), false);
        }
        self.nf.apply_mask(mask);
        self.solver.solve(
            &mut self.nf.graph,
            self.nf.source,
            self.nf.sink,
            self.demand,
        ) >= self.demand
    }

    /// As [`admits`](Self::admits), additionally extracting the monotonicity
    /// certificate the verdict carries (see [`maxflow::certcache`]) when
    /// `want_cert` is set.
    pub fn admits_with_cert(&mut self, mask: EdgeMask, want_cert: bool) -> (bool, SolveCert) {
        if self.demand == 0 {
            return (true, SolveCert::Feasible { support: 0 });
        }
        if let Some(w) = &mut self.warm {
            return warm_solve_with_cert(
                &mut self.nf,
                w,
                self.solver,
                mask,
                self.demand,
                want_cert,
            );
        }
        solve_with_cert(&mut self.nf, self.solver, mask, self.demand, want_cert)
    }

    /// Maximum flow with every link alive (for quick infeasibility checks).
    pub fn max_flow_all_alive(&mut self) -> u64 {
        self.invalidate_warm(); // about to mutate the graph behind the warm flow
        self.nf.apply_all_alive();
        self.solver
            .solve(&mut self.nf.graph, self.nf.source, self.nf.sink, u64::MAX)
    }
}

/// Answers, for one side of a bottleneck decomposition, "does this failure
/// configuration of the side's links realize assignment `j`?" — the oracle
/// behind the array data structure of Section III-C.
///
/// The side subproblem is a transshipment feasibility check. On the source
/// side `G_s`, the terminal `s` produces `d` units and each attach point
/// `x_i` consumes `a_i` (a negative `a_i`, possible only under the
/// net-crossing model, turns `x_i` into a producer). On the sink side the
/// roles are mirrored. The check lowers to one max-flow between a
/// super-source and a super-sink whose attachment capacities encode the
/// supplies and demands; the assignment realizes iff the flow saturates.
///
/// Clones share no state: the sweep engine hands each parallel worker its
/// own copy so configuration sweeps never contend on the residual graph.
#[derive(Clone)]
pub struct SideOracle {
    nf: NetworkFlow,
    solver: SolverKind,
    /// Per assignment: `(supply per terminal-node, demand per terminal-node,
    /// required saturation)`.
    plans: Vec<(Vec<u64>, Vec<u64>, u64)>,
    edge_count: usize,
    caps: Vec<u64>,
    current: usize,
    warm: Option<WarmState>,
}

impl SideOracle {
    /// Prepares the oracle for `side` with the given assignment set. The
    /// terminal's production is the assignment's net crossing total (`Σ a_i`,
    /// which equals the stream demand `d` for every assignment in `D`).
    ///
    /// Fails with [`ReliabilityError::ArityMismatch`] when an assignment's
    /// amount vector does not have one entry per attach point.
    pub fn new(
        side: &Side,
        assignments: &[Assignment],
        solver: SolverKind,
    ) -> Result<Self, ReliabilityError> {
        // Side sweeps enumerate binary up/down configurations; a side with a
        // capacity spectrum must be swept whole by the naive engine instead.
        // The planner never routes one here — this guards direct callers.
        if side.net.has_multistate() {
            return Err(ReliabilityError::MultiState {
                operation: "a side spectrum sweep",
            });
        }
        // terminal nodes: the demand terminal first, then the attach points
        let terminals: Vec<NodeId> = std::iter::once(side.terminal)
            .chain(side.attach.iter().copied())
            .collect();
        let mut plans = Vec::with_capacity(assignments.len());
        for a in assignments {
            if a.amounts.len() != side.attach.len() {
                return Err(ReliabilityError::ArityMismatch {
                    what: "assignment amounts",
                    got: a.amounts.len(),
                    expected: side.attach.len(),
                });
            }
            let crossing: i64 = a.amounts.iter().sum();
            // net production of each terminal node
            let mut production: Vec<i64> = Vec::with_capacity(terminals.len());
            if side.is_source_side {
                production.push(crossing);
                production.extend(a.amounts.iter().map(|&x| -x));
            } else {
                production.push(-crossing);
                production.extend(a.amounts.iter().copied());
            }
            let supplies: Vec<u64> = production.iter().map(|&p| p.max(0) as u64).collect();
            let demands: Vec<u64> = production.iter().map(|&p| (-p).max(0) as u64).collect();
            let required: u64 = supplies.iter().sum();
            debug_assert_eq!(required, demands.iter().sum::<u64>());
            plans.push((supplies, demands, required));
        }
        let zeroed: Vec<(NodeId, u64)> = terminals.iter().map(|&n| (n, 0)).collect();
        let nf = build_flow_multi(&side.net, &zeroed, &zeroed);
        let edge_count = side.net.edge_count();
        let caps = side.net.edges().iter().map(|e| e.capacity).collect();
        let mut oracle = SideOracle {
            nf,
            solver,
            plans,
            edge_count,
            caps,
            current: usize::MAX,
            warm: None,
        };
        if !oracle.plans.is_empty() {
            oracle.set_assignment(0);
        }
        Ok(oracle)
    }

    /// Number of assignments.
    pub fn assignment_count(&self) -> usize {
        self.plans.len()
    }

    /// Number of links on this side (the configuration space is `2^this`).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Per-link capacities, indexed by side-edge id (for cut certificates).
    pub fn edge_capacities(&self) -> &[u64] {
        &self.caps
    }

    /// Enables or disables the warm-start incremental solve path (sides with
    /// more than 64 links cannot use it; the request is then a no-op).
    pub fn set_incremental(&mut self, on: bool) {
        if on && self.edge_count <= 64 {
            if self.warm.is_none() {
                self.warm = Some(WarmState::new());
            }
        } else {
            self.warm = None;
        }
    }

    /// Drops the maintained warm flow (if any); the next query re-solves
    /// from scratch.
    pub fn invalidate_warm(&mut self) {
        if let Some(w) = &mut self.warm {
            w.invalidate();
        }
    }

    /// Returns and resets the incremental-repair telemetry.
    pub fn take_repair_stats(&mut self) -> RepairStats {
        self.warm
            .as_mut()
            .map(WarmState::take_stats)
            .unwrap_or_default()
    }

    /// Selects the assignment subsequent [`admits`](Self::admits) calls test.
    /// Retuning the super-terminal base capacities invalidates any maintained
    /// warm flow: the next query after a switch re-solves from scratch.
    pub fn set_assignment(&mut self, j: usize) {
        let (supplies, demands, _) = &self.plans[j];
        for (&arc, &cap) in self.nf.source_arcs.iter().zip(supplies) {
            self.nf.graph.set_base_capacity(arc, cap);
        }
        for (&arc, &cap) in self.nf.sink_arcs.iter().zip(demands) {
            self.nf.graph.set_base_capacity(arc, cap);
        }
        if self.current != j {
            self.invalidate_warm();
        }
        self.current = j;
    }

    /// Does the side configuration `mask` realize the selected assignment?
    pub fn admits(&mut self, mask: EdgeMask) -> bool {
        let required = self.plans[self.current].2;
        if required == 0 {
            return true;
        }
        if let Some(w) = &mut self.warm {
            return w.admits(&mut self.nf, self.solver, required, mask.bits(), false);
        }
        self.nf.apply_mask(mask);
        self.solver
            .solve(&mut self.nf.graph, self.nf.source, self.nf.sink, required)
            >= required
    }

    /// As [`admits`](Self::admits), additionally extracting the monotonicity
    /// certificate for the *currently selected assignment* when `want_cert`
    /// is set. Certificates are only valid for the assignment they were
    /// extracted under — the sweep engine keeps one cache per assignment.
    pub fn admits_with_cert(&mut self, mask: EdgeMask, want_cert: bool) -> (bool, SolveCert) {
        let required = self.plans[self.current].2;
        if required == 0 {
            return (true, SolveCert::Feasible { support: 0 });
        }
        if let Some(w) = &mut self.warm {
            return warm_solve_with_cert(&mut self.nf, w, self.solver, mask, required, want_cert);
        }
        solve_with_cert(&mut self.nf, self.solver, mask, required, want_cert)
    }

    /// Shorthand: does the all-alive configuration realize assignment `j`?
    pub fn feasible_at_best(&mut self, j: usize) -> bool {
        self.set_assignment(j);
        self.admits(EdgeMask::all_alive(self.edge_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{GraphKind, NetworkBuilder};

    fn diamond() -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[2], 1, 0.1).unwrap();
        b.add_edge(n[1], n[3], 1, 0.1).unwrap();
        b.add_edge(n[2], n[3], 1, 0.1).unwrap();
        b.build()
    }

    #[test]
    fn oracle_tracks_configurations() {
        let net = diamond();
        let mut o = DemandOracle::new(&net, NodeId(0), NodeId(3), 1, SolverKind::Dinic);
        assert!(o.admits(EdgeMask::all_alive(4)));
        assert!(o.admits(EdgeMask::from_bits(0b0101, 4))); // upper path only
        assert!(!o.admits(EdgeMask::from_bits(0b0110, 4))); // mismatched halves
        assert!(!o.admits(EdgeMask::all_failed(4)));
    }

    #[test]
    fn demand_two_needs_both_paths() {
        let net = diamond();
        let mut o = DemandOracle::new(&net, NodeId(0), NodeId(3), 2, SolverKind::Dinic);
        assert!(o.admits(EdgeMask::all_alive(4)));
        assert!(!o.admits(EdgeMask::from_bits(0b0111, 4)));
        assert_eq!(o.max_flow_all_alive(), 2);
    }

    #[test]
    fn zero_demand_always_admits() {
        let net = diamond();
        let mut o = DemandOracle::new(&net, NodeId(0), NodeId(3), 0, SolverKind::Dinic);
        assert!(o.admits(EdgeMask::all_failed(4)));
    }

    /// Source side: s with two attach points a (via e0, cap 2) and b (via e1,
    /// cap 1).
    fn source_side() -> Side {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap();
        b.add_edge(n[0], n[2], 1, 0.1).unwrap();
        Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: n[0],
            attach: vec![n[1], n[2]],
            is_source_side: true,
        }
    }

    fn asg(amounts: &[i64]) -> Assignment {
        Assignment {
            amounts: amounts.to_vec(),
        }
    }

    #[test]
    fn side_oracle_source_side() {
        let side = source_side();
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1]), asg(&[0, 2])];
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        assert_eq!(o.assignment_count(), 3);
        assert_eq!(o.edge_count(), 2);
        assert!(o.feasible_at_best(0), "(2,0): e0 carries 2");
        assert!(o.feasible_at_best(1), "(1,1)");
        assert!(!o.feasible_at_best(2), "(0,2): e1 has capacity 1");
        // kill e0: only (0,...) assignments could work, but (0,2) exceeds cap
        o.set_assignment(1);
        assert!(!o.admits(EdgeMask::from_bits(0b10, 2)));
        o.set_assignment(0);
        assert!(
            o.admits(EdgeMask::from_bits(0b01, 2)),
            "(2,0) only needs e0"
        );
    }

    #[test]
    fn side_oracle_sink_side() {
        // mirrored: attach points feed t
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[2], 1, 0.1).unwrap(); // y1 -> t
        b.add_edge(n[1], n[2], 1, 0.1).unwrap(); // y2 -> t
        let side = Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: n[2],
            attach: vec![n[0], n[1]],
            is_source_side: false,
        };
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1])];
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        assert!(!o.feasible_at_best(0), "(2,0): y1->t has capacity 1");
        assert!(o.feasible_at_best(1));
    }

    #[test]
    fn side_oracle_single_node_side() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let s = b.add_node();
        let side = Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: s,
            attach: vec![s],
            is_source_side: true,
        };
        let assignments = vec![asg(&[1])];
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        assert!(o.feasible_at_best(0), "s is itself the attach point");
    }

    #[test]
    fn side_oracle_net_model_reverse_flow() {
        // source side where x2 re-injects one unit that must reach x1:
        // s -e0(cap1)-> x1, x2 -e1(cap1)-> x1. Assignment (2, -1): x1 takes 2,
        // x2 gives 1 back.
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[2], n[1], 1, 0.1).unwrap();
        let side = Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: n[0],
            attach: vec![n[1], n[2]],
            is_source_side: true,
        };
        let assignments = vec![asg(&[2, -1]), asg(&[1, 0])];
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        assert!(o.feasible_at_best(0), "(2,-1): 1 from s plus 1 from x2");
        assert!(o.feasible_at_best(1), "(1,0): direct");
    }
}
