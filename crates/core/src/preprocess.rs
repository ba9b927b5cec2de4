//! Exact preprocessing: relevance reduction.
//!
//! A link that lies on no s→t path can never carry s→t flow — in *any*
//! failure configuration (removing links never creates paths, and cycles
//! never contribute to the s–t flow value). Its state therefore marginalizes
//! out of the reliability, for every demand `d`, and it can be deleted before
//! enumeration. For directed networks the relevant links are exactly those
//! `(u, v)` with `u` reachable from `s` and `v` co-reachable to `t`; for
//! undirected networks, those inside the s–t component.
//!
//! This shrinks the enumeration *exponent*: a network with 40 links of which
//! 12 dangle off the delivery paths becomes a 28-link instance with the
//! identical reliability. [`crate::naive::reliability_naive`] and
//! [`crate::factoring::reliability_factoring`] apply it automatically;
//! factoring then enumerates every remaining link, `p(e) = 0` ones too.

use netgraph::{Adjacency, BitSet, GraphKind, Network, NodeId};

use crate::demand::FlowDemand;

/// The relevance-reduced instance.
#[derive(Clone, Debug)]
pub struct RelevantNetwork {
    /// The reduced network (possibly identical to the input).
    pub net: Network,
    /// The demand, with endpoints renumbered for the reduced network.
    pub demand: FlowDemand,
    /// For each reduced edge, its index in the original network.
    pub edge_origin: Vec<usize>,
    /// Links removed from the original.
    pub removed: usize,
}

/// Nodes co-reachable to `t`: BFS over reversed directions.
fn coreach(net: &Network, t: NodeId) -> BitSet {
    let adj = Adjacency::new(net);
    let mut seen = BitSet::new(net.node_count());
    seen.insert(t.index());
    let mut stack = vec![t];
    while let Some(u) = stack.pop() {
        for &(_, v) in adj.in_edges(u) {
            if !seen.contains(v.index()) {
                seen.insert(v.index());
                stack.push(v);
            }
        }
    }
    seen
}

/// Deletes every link on no s→t path. Exact for every demand.
pub fn relevance_reduce(net: &Network, demand: FlowDemand) -> RelevantNetwork {
    let adj = Adjacency::new(net);
    let reach = netgraph::bfs_reachable(&adj, demand.source, |_| true);
    let co = coreach(net, demand.sink);
    let relevant = |i: usize| -> bool {
        let e = &net.edges()[i];
        if e.src == e.dst || e.capacity == 0 {
            return false; // self-loops and zero-capacity links never matter
        }
        if e.fail_prob >= 1.0 {
            return false; // an always-down link behaves as a deleted one
        }
        match net.kind() {
            GraphKind::Directed => reach.contains(e.src.index()) && co.contains(e.dst.index()),
            // undirected: usable in either direction
            GraphKind::Undirected => {
                (reach.contains(e.src.index()) && co.contains(e.dst.index()))
                    || (reach.contains(e.dst.index()) && co.contains(e.src.index()))
            }
        }
    };
    let keep: Vec<usize> = (0..net.edge_count()).filter(|&i| relevant(i)).collect();
    if keep.len() == net.edge_count() {
        return RelevantNetwork {
            net: net.clone(),
            demand,
            edge_origin: keep,
            removed: 0,
        };
    }
    // rebuild over the nodes touched by surviving links plus the terminals
    let mut node_keep = vec![false; net.node_count()];
    node_keep[demand.source.index()] = true;
    node_keep[demand.sink.index()] = true;
    for &i in &keep {
        node_keep[net.edges()[i].src.index()] = true;
        node_keep[net.edges()[i].dst.index()] = true;
    }
    let mut remap = vec![usize::MAX; net.node_count()];
    let mut b = netgraph::NetworkBuilder::new(net.kind());
    for (i, &k) in node_keep.iter().enumerate() {
        if k {
            remap[i] = b.add_node().index();
        }
    }
    for &i in &keep {
        let e = &net.edges()[i];
        let src = NodeId::from(remap[e.src.index()]);
        let dst = NodeId::from(remap[e.dst.index()]);
        match net.spectrum(netgraph::EdgeId::from(i)) {
            Some(sp) => b.add_spectrum_edge(src, dst, sp.states()),
            None => b.add_edge(src, dst, e.capacity, e.fail_prob),
        }
        .unwrap_or_else(|e| unreachable!("probabilities are already validated: {e}"));
    }
    let removed = net.edge_count() - keep.len();
    RelevantNetwork {
        net: b.build(),
        demand: FlowDemand::new(
            NodeId::from(remap[demand.source.index()]),
            NodeId::from(remap[demand.sink.index()]),
            demand.demand,
        ),
        edge_origin: keep,
        removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::NetworkBuilder;

    #[test]
    fn keeps_everything_on_a_clean_path() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.2).unwrap();
        let net = b.build();
        let red = relevance_reduce(&net, FlowDemand::new(n[0], n[2], 1));
        assert_eq!(red.removed, 0);
        assert_eq!(red.net.edge_count(), 2);
        assert_eq!(red.edge_origin, vec![0, 1]);
    }

    #[test]
    fn drops_dangling_spur_and_wrong_way_edge() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(5);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap(); // s->a relevant
        b.add_edge(n[1], n[2], 1, 0.2).unwrap(); // a->t relevant
        b.add_edge(n[1], n[3], 1, 0.3).unwrap(); // a->spur: spur can't reach t
        b.add_edge(n[2], n[0], 1, 0.4).unwrap(); // t->s back edge (cycle)
        b.add_edge(n[4], n[1], 1, 0.5).unwrap(); // unreachable origin
        let net = b.build();
        let red = relevance_reduce(&net, FlowDemand::new(n[0], n[2], 1));
        // the t->s edge is "relevant" by the reach/coreach test (it closes a
        // cycle through s) but carries no s-t flow; the cheap test keeps it.
        // The spur and the unreachable-origin edge must go.
        assert!(red.removed >= 2);
        assert!(red.net.edge_count() <= 3);
    }

    #[test]
    fn undirected_component_filter() {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(5);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.2).unwrap();
        b.add_edge(n[3], n[4], 1, 0.3).unwrap(); // disconnected island
        let net = b.build();
        let red = relevance_reduce(&net, FlowDemand::new(n[0], n[2], 1));
        assert_eq!(red.removed, 1);
        assert_eq!(red.net.edge_count(), 2);
        assert_eq!(red.net.node_count(), 3);
    }

    #[test]
    fn zero_capacity_and_self_loops_removed() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[1], 0, 0.2).unwrap();
        b.add_edge(n[0], n[0], 1, 0.3).unwrap();
        let net = b.build();
        let red = relevance_reduce(&net, FlowDemand::new(n[0], n[1], 1));
        assert_eq!(red.removed, 2);
        assert_eq!(red.edge_origin, vec![0]);
    }

    #[test]
    fn reduction_extends_the_naive_range() {
        use crate::naive::reliability_naive;
        use crate::options::CalcOptions;
        // 3 relevant links plus 38 irrelevant spurs: 41 links total, far over
        // the enumeration bound — but only 3 enter the exponent
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(44);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.2).unwrap();
        b.add_edge(n[0], n[2], 1, 0.3).unwrap();
        for i in 3..41 {
            b.add_edge(n[1], n[i], 1, 0.25).unwrap(); // dead-end spurs
        }
        let net = b.build();
        assert_eq!(net.edge_count(), 41);
        let d = FlowDemand::new(n[0], n[2], 1);
        let r = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let expected = 1.0 - (1.0 - 0.9 * 0.8) * 0.3;
        assert!((r - expected).abs() < 1e-12, "{r} vs {expected}");
    }

    #[test]
    fn always_down_links_are_deleted() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[1], 5, 1.0).unwrap(); // never up
        let net = b.build();
        let red = relevance_reduce(&net, FlowDemand::new(n[0], n[1], 1));
        assert_eq!(red.removed, 1);
        assert_eq!(red.edge_origin, vec![0]);
    }

    #[test]
    fn reduction_carries_spectra() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        b.add_spectrum_edge(n[0], n[1], &[(0, 0.25), (1, 0.25), (2, 0.5)])
            .unwrap();
        b.add_edge(n[1], n[2], 2, 0.125).unwrap();
        b.add_edge(n[1], n[3], 1, 0.5).unwrap(); // dead-end spur: dropped
        let net = b.build();
        let red = relevance_reduce(&net, FlowDemand::new(n[0], n[2], 1));
        assert_eq!(red.removed, 1);
        assert!(red.net.has_multistate());
        let sp = red.net.spectrum(netgraph::EdgeId(0)).unwrap();
        assert_eq!(sp.states(), &[(0, 0.25), (1, 0.25), (2, 0.5)]);
    }

    #[test]
    fn disconnected_terminals_reduce_to_nothing() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        let net = b.build();
        let red = relevance_reduce(&net, FlowDemand::new(n[0], n[2], 1));
        assert_eq!(red.net.edge_count(), 0, "no link reaches the sink");
        // terminals survive renumbering
        assert!(red.demand.source.index() < red.net.node_count());
        assert!(red.demand.sink.index() < red.net.node_count());
    }
}
