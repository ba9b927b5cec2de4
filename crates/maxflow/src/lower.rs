//! Lowering a [`netgraph::Network`] into a [`FlowGraph`].

use netgraph::{EdgeMask, GraphKind, Network, NodeId};

use crate::certcache::SolveCert;
use crate::graph::{ArcId, FlowGraph};

/// A [`FlowGraph`] built from a [`Network`], remembering which arc realizes
/// each network edge so failure configurations can be applied cheaply.
#[derive(Clone, Debug)]
pub struct NetworkFlow {
    /// The lowered residual graph (may contain super-terminal nodes/arcs).
    pub graph: FlowGraph,
    /// For network edge `i`, `edge_arcs[i]` is its forward arc.
    pub edge_arcs: Vec<ArcId>,
    /// Flow source node index in `graph`.
    pub source: usize,
    /// Flow sink node index in `graph`.
    pub sink: usize,
    /// Super-source attachment arcs, one per source terminal, in the order
    /// given (empty when no super-source was needed).
    pub source_arcs: Vec<ArcId>,
    /// Super-sink attachment arcs, one per sink terminal, in the order given
    /// (empty when no super-sink was needed).
    pub sink_arcs: Vec<ArcId>,
}

impl NetworkFlow {
    /// Prepares the graph for one failure configuration: restores base
    /// capacities, then disables every edge that failed in `mask`.
    ///
    /// # Panics
    /// Panics if `mask.len()` differs from the number of network edges.
    pub fn apply_mask(&mut self, mask: EdgeMask) {
        assert_eq!(mask.len(), self.edge_arcs.len(), "mask/edge count mismatch");
        self.graph.reset();
        for (i, &arc) in self.edge_arcs.iter().enumerate() {
            if !mask.alive(i) {
                self.graph.disable(arc);
            }
        }
    }

    /// Prepares the graph with every edge alive.
    pub fn apply_all_alive(&mut self) {
        self.graph.reset();
    }

    /// Prepares the graph with every network edge disabled (super-terminal
    /// arcs, which cannot fail, keep their base capacity). The starting state
    /// of permutation-style samplers that revive links one at a time with
    /// [`revive_edge`](Self::revive_edge).
    pub fn apply_none_alive(&mut self) {
        self.graph.reset();
        for &arc in &self.edge_arcs {
            self.graph.disable(arc);
        }
    }

    /// Revives network edge `i`, restoring its base capacity in place while
    /// keeping all flow currently routed through the rest of the graph —
    /// follow-up solves only augment the *additional* flow the revived link
    /// enables. The edge must currently be disabled and flow-free, which
    /// holds for any edge not yet revived since the last
    /// [`apply_mask`](Self::apply_mask) / [`apply_none_alive`](Self::apply_none_alive).
    ///
    /// # Panics
    /// Panics if `i` is not a network edge index.
    pub fn revive_edge(&mut self, i: usize) {
        self.graph.revive(self.edge_arcs[i]);
    }

    /// Bitmask of network edges carrying nonzero flow after a *successful*
    /// feasibility solve.
    ///
    /// Because s–t flow feasibility is monotone in the set of alive links,
    /// the returned support is a reusable certificate: any configuration
    /// whose alive set contains it admits the same flow, with no further
    /// solve. Only meaningful while the routed flow is still in the graph
    /// (i.e. before the next [`apply_mask`](Self::apply_mask)).
    ///
    /// # Panics
    /// Panics if the network has more than 64 edges.
    pub fn flow_support_bits(&self) -> u64 {
        assert!(
            self.edge_arcs.len() <= 64,
            "support certificates need <= 64 edges"
        );
        let mut bits = 0u64;
        for (i, &arc) in self.edge_arcs.iter().enumerate() {
            if self.graph.net_flow(arc) != 0 {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// The saturated s–t cut witnessed by a *failed* (exhausted) solve, as
    /// `(crossing, fixed)`: the bitmask of network edges crossing the cut and
    /// the total base capacity of super-terminal arcs crossing it (arcs that
    /// are not network edges and cannot fail). Returns `None` when the sink
    /// is still reachable in the residual graph (the solve was not run to
    /// completion).
    ///
    /// The cut is the residual-reachability partition. Flow is bounded by
    /// the capacity of any cut, so for the same terminal setup *every*
    /// configuration satisfies `max_flow ≤ fixed + Σ capacity(e)` over its
    /// alive edges `e` in `crossing` — a reusable infeasibility certificate
    /// for any configuration whose bound falls below the required flow. A
    /// directed edge oriented sink-side → source-side contributes no cut
    /// capacity and is excluded; undirected edges cross in either
    /// orientation.
    ///
    /// # Panics
    /// Panics if the network has more than 64 edges.
    pub fn residual_cut_bits(&self) -> Option<(u64, u64)> {
        assert!(
            self.edge_arcs.len() <= 64,
            "cut certificates need <= 64 edges"
        );
        let seen = crate::mincut::residual_reachable(&self.graph, self.source);
        if seen[self.sink] {
            return None;
        }
        let mut bits = 0u64;
        for (i, &arc) in self.edge_arcs.iter().enumerate() {
            let u = self.graph.arc_tail(arc.0);
            let v = self.graph.arc_head(arc.0);
            // forward orientation S -> T always crosses; the reverse
            // orientation only carries capacity for undirected edges
            // (their reverse arc has nonzero base capacity).
            let crosses =
                (seen[u] && !seen[v]) || (!seen[u] && seen[v] && self.graph.base_of(arc.0 ^ 1) > 0);
            if crosses {
                bits |= 1 << i;
            }
        }
        let mut fixed = 0u64;
        for &arc in self.source_arcs.iter().chain(&self.sink_arcs) {
            let u = self.graph.arc_tail(arc.0);
            let v = self.graph.arc_head(arc.0);
            if seen[u] && !seen[v] {
                fixed += self.graph.base_of(arc.0);
            }
        }
        Some((bits, fixed))
    }

    /// The monotonicity certificate a just-finished feasibility solve carries:
    /// the flow support when `feasible`, otherwise the saturated cut with the
    /// alive crossing capacity it still needs to carry `required`. Read it
    /// before the next [`apply_mask`](Self::apply_mask). Returns
    /// [`SolveCert::None`] when the cut's unfailable capacity alone reaches
    /// `required` or the solve stopped before exhausting augmentation.
    ///
    /// # Panics
    /// Panics if the network has more than 64 edges.
    pub fn certificate(&self, feasible: bool, required: u64) -> SolveCert {
        if feasible {
            return SolveCert::Feasible {
                support: self.flow_support_bits(),
            };
        }
        // an infeasible verdict means the solver exhausted augmentation, so
        // the residual graph witnesses a saturated cut; `fixed` capacity
        // (super-terminal arcs) never fails, so the cut refutes exactly the
        // configurations whose alive crossing capacity stays below the rest
        match self.residual_cut_bits() {
            Some((crossing, fixed)) if fixed < required => SolveCert::Infeasible {
                crossing,
                needed: required - fixed,
            },
            _ => SolveCert::None,
        }
    }
}

fn lower_edges(net: &Network, g: &mut FlowGraph) -> Vec<ArcId> {
    net.edges()
        .iter()
        .map(|e| match net.kind() {
            GraphKind::Directed => g.add_arc(e.src.index(), e.dst.index(), e.capacity),
            GraphKind::Undirected => g.add_undirected(e.src.index(), e.dst.index(), e.capacity),
        })
        .collect()
}

/// Lowers `net` for a plain `s → t` flow query.
pub fn build_flow(net: &Network, s: NodeId, t: NodeId) -> NetworkFlow {
    let mut graph = FlowGraph::new(net.node_count());
    let edge_arcs = lower_edges(net, &mut graph);
    graph.ensure_csr();
    NetworkFlow {
        graph,
        edge_arcs,
        source: s.index(),
        sink: t.index(),
        source_arcs: Vec::new(),
        sink_arcs: Vec::new(),
    }
}

/// Lowers `net` for a multi-terminal query: a super-source feeds each
/// `(node, supply)` in `sources`, and each `(node, demand)` in `sinks` drains
/// into a super-sink. With a single terminal on a side, no super node is added
/// on that side (the plain node is used and no capacity bound is imposed).
///
/// The per-terminal arcs are returned in `source_arcs` / `sink_arcs`, so
/// callers can retune the supplies/demands with
/// [`FlowGraph::set_base_capacity`] between queries — this is how the
/// realization-table construction of Section III-C iterates over assignments
/// without rebuilding the graph.
pub fn build_flow_multi(
    net: &Network,
    sources: &[(NodeId, u64)],
    sinks: &[(NodeId, u64)],
) -> NetworkFlow {
    assert!(
        !sources.is_empty() && !sinks.is_empty(),
        "need at least one source and sink"
    );
    let mut graph = FlowGraph::new(net.node_count());
    let edge_arcs = lower_edges(net, &mut graph);
    let mut source_arcs = Vec::new();
    let mut sink_arcs = Vec::new();

    let source = if sources.len() == 1 && sinks.iter().all(|&(n, _)| n != sources[0].0) {
        sources[0].0.index()
    } else {
        let ss = graph.add_node();
        for &(n, supply) in sources {
            source_arcs.push(graph.add_arc(ss, n.index(), supply));
        }
        ss
    };
    let sink = if sinks.len() == 1 && sinks[0].0.index() != source {
        sinks[0].0.index()
    } else {
        let st = graph.add_node();
        for &(n, demand) in sinks {
            sink_arcs.push(graph.add_arc(n.index(), st, demand));
        }
        st
    };
    graph.ensure_csr();
    NetworkFlow {
        graph,
        edge_arcs,
        source,
        sink,
        source_arcs,
        sink_arcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::MaxFlowSolver;
    use crate::Dinic;
    use netgraph::NetworkBuilder;

    fn diamond(kind: GraphKind) -> Network {
        let mut b = NetworkBuilder::new(kind);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap();
        b.add_edge(n[0], n[2], 2, 0.1).unwrap();
        b.add_edge(n[1], n[3], 2, 0.1).unwrap();
        b.add_edge(n[2], n[3], 2, 0.1).unwrap();
        b.build()
    }

    #[test]
    fn directed_lowering_flows() {
        let net = diamond(GraphKind::Directed);
        let mut nf = build_flow(&net, NodeId(0), NodeId(3));
        nf.apply_all_alive();
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 4);
    }

    #[test]
    fn undirected_lowering_flows_backwards_too() {
        let net = diamond(GraphKind::Undirected);
        let mut nf = build_flow(&net, NodeId(3), NodeId(0));
        nf.apply_all_alive();
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 4);
    }

    #[test]
    fn mask_disables_edges() {
        let net = diamond(GraphKind::Directed);
        let mut nf = build_flow(&net, NodeId(0), NodeId(3));
        // kill edge 0 (s->a): only the b-path remains
        nf.apply_mask(EdgeMask::from_bits(0b1110, 4));
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 2);
        // all edges dead
        nf.apply_mask(EdgeMask::all_failed(4));
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 0);
        // reuse with everything alive again
        nf.apply_mask(EdgeMask::all_alive(4));
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 4);
    }

    #[test]
    fn multi_sink_demands_bound_flow() {
        let net = diamond(GraphKind::Directed);
        // demand 1 at node 1 and 2 at node 2: total 3, but node2 can only get 2
        let mut nf = build_flow_multi(&net, &[(NodeId(0), 10)], &[(NodeId(1), 1), (NodeId(2), 2)]);
        nf.apply_all_alive();
        let f = Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX);
        assert_eq!(f, 3);
    }

    #[test]
    fn retuning_terminal_arcs() {
        let net = diamond(GraphKind::Directed);
        let mut nf = build_flow_multi(&net, &[(NodeId(0), 10)], &[(NodeId(1), 2), (NodeId(2), 2)]);
        nf.apply_all_alive();
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 4);
        // retarget to (0, 1): only one unit may drain via node 2
        assert!(
            nf.source_arcs.is_empty(),
            "single plain source, no super node"
        );
        let sink_arcs: Vec<ArcId> = nf.sink_arcs.clone();
        assert_eq!(sink_arcs.len(), 2);
        nf.graph.set_base_capacity(sink_arcs[0], 0);
        nf.graph.set_base_capacity(sink_arcs[1], 1);
        nf.apply_all_alive();
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 1);
    }

    #[test]
    fn feasible_support_is_a_superset_certificate() {
        let net = diamond(GraphKind::Directed);
        let mut nf = build_flow(&net, NodeId(0), NodeId(3));
        nf.apply_all_alive();
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, 2), 2);
        let support = nf.flow_support_bits();
        assert_ne!(support, 0);
        // the support itself, run as a configuration, admits the demand
        nf.apply_mask(EdgeMask::from_bits(support, 4));
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, 2), 2);
    }

    #[test]
    fn infeasible_cut_witnesses_the_bottleneck() {
        let net = diamond(GraphKind::Directed);
        let mut nf = build_flow(&net, NodeId(0), NodeId(3));
        // edges 0 (s->a) and 3 (b->t) dead: no flow at all
        nf.apply_mask(EdgeMask::from_bits(0b0110, 4));
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 0);
        let (crossing, fixed) = nf.residual_cut_bits().expect("sink unreachable");
        // the cut separates s from t using only dead edges
        assert_eq!(crossing & 0b0110, 0, "alive crossing capacity must be zero");
        assert_ne!(crossing, 0);
        assert_eq!(fixed, 0, "plain s-t lowering has no super-terminal arcs");
    }

    #[test]
    fn unexhausted_solve_yields_no_cut() {
        let net = diamond(GraphKind::Directed);
        let mut nf = build_flow(&net, NodeId(0), NodeId(3));
        nf.apply_all_alive();
        // early exit at 1 unit: residual sink still reachable
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, 1), 1);
        assert_eq!(nf.residual_cut_bits(), None);
    }

    #[test]
    fn undirected_cut_crosses_both_orientations() {
        // s - a declared both ways: kill the path and check both edges appear
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[2], n[1], 1, 0.1).unwrap(); // declared toward the middle
        let net = b.build();
        let mut nf = build_flow(&net, NodeId(0), NodeId(2));
        nf.apply_mask(EdgeMask::from_bits(0b01, 2)); // edge 1 dead
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 0);
        let (crossing, _) = nf.residual_cut_bits().expect("sink unreachable");
        assert!(
            crossing & 0b10 != 0,
            "the dead reverse-declared edge crosses"
        );
    }

    #[test]
    fn super_terminal_arcs_count_toward_the_cut() {
        let net = diamond(GraphKind::Directed);
        // super-source supplies nodes 0 and 1; kill node 0's outgoing edges
        let mut nf = build_flow_multi(&net, &[(NodeId(0), 1), (NodeId(1), 1)], &[(NodeId(3), 10)]);
        nf.apply_mask(EdgeMask::from_bits(0b1100, 4));
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 1);
        let (crossing, fixed) = nf.residual_cut_bits().expect("sink unreachable");
        assert_eq!(crossing, 0b0011, "node 0's dead edges cross the cut");
        assert_eq!(fixed, 1, "the saturated supply arc to node 1 crosses too");
    }

    #[test]
    fn revive_edges_augments_incrementally() {
        let net = diamond(GraphKind::Directed);
        let mut nf = build_flow(&net, NodeId(0), NodeId(3));
        nf.apply_none_alive();
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 0);
        // revive the a-path one link at a time; flow only appears once the
        // path is complete, and each solve augments on the warm residual
        nf.revive_edge(0); // s->a
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 0);
        nf.revive_edge(2); // a->t
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 2);
        // the b-path adds two more units on top of the retained flow
        nf.revive_edge(1);
        nf.revive_edge(3);
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 2);
    }

    #[test]
    fn multi_source_single_sink() {
        let net = diamond(GraphKind::Directed);
        let mut nf = build_flow_multi(&net, &[(NodeId(1), 1), (NodeId(2), 1)], &[(NodeId(3), 10)]);
        nf.apply_all_alive();
        // sinks.len()==1 and its node != super source, so plain node used:
        // flow bounded by the two supplies
        assert_eq!(Dinic.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX), 2);
    }
}
