//! Series–parallel reduction for unit-demand (two-terminal) reliability.
//!
//! For `d = 1` the flow question degenerates to s–t connectivity over
//! positive-capacity links, and the classic exact reductions apply:
//!
//! * **capacity-0 / self-loop removal** — such links never carry the unit;
//! * **dangling removal** — a non-terminal node of degree ≤ 1 (or whose links
//!   all go to one neighbour) lies on no simple s–t path;
//! * **parallel reduction** — links joining the same node pair merge into one
//!   with `p = p₁·p₂` (the merged link fails iff both fail);
//! * **series reduction** — a non-terminal degree-2 node `v` with links
//!   `u—v—w` (`u ≠ w`) merges them into `u—w` with survival `r₁·r₂`.
//!
//! Each rule preserves the reliability exactly. On series-parallel networks
//! the graph collapses to a single link — polynomial time where every general
//! algorithm is exponential. The decomposition planner ([`crate::plan`])
//! applies it to every unit-demand subproblem it plans, as its `SpReduce`
//! node. Implemented for undirected networks (the classical setting; directed
//! series/parallel rules need care with orientations and are not needed by
//! the workloads).

use netgraph::{GraphKind, Network, NetworkBuilder, NodeId};

/// Counts of applied reductions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Series merges performed.
    pub series: usize,
    /// Parallel merges performed.
    pub parallel: usize,
    /// Dangling nodes removed.
    pub dangling: usize,
    /// Self-loops and capacity-0 links dropped.
    pub dropped: usize,
}

/// The reduced network (unit capacities) plus statistics.
#[derive(Clone, Debug)]
pub struct ReducedNetwork {
    /// The exactly-equivalent smaller network.
    pub net: Network,
    /// Source in the reduced network.
    pub source: NodeId,
    /// Sink in the reduced network.
    pub sink: NodeId,
    /// What was applied.
    pub stats: ReductionStats,
}

/// Internal working edge: endpoints + failure probability.
#[derive(Clone, Copy, Debug)]
struct WEdge {
    u: usize,
    v: usize,
    p: f64,
}

/// Applies all reductions to fixpoint. Undirected networks only.
///
/// # Panics
/// Panics when called on a directed network.
pub fn reduce_unit_demand(net: &Network, s: NodeId, t: NodeId) -> ReducedNetwork {
    assert_eq!(
        net.kind(),
        GraphKind::Undirected,
        "series-parallel reduction is defined for undirected networks"
    );
    let mut stats = ReductionStats::default();
    let mut edges: Vec<WEdge> = Vec::new();
    for e in net.edges() {
        if e.capacity == 0 || e.src == e.dst {
            stats.dropped += 1; // can never carry the unit / self-loop
            continue;
        }
        edges.push(WEdge {
            u: e.src.index(),
            v: e.dst.index(),
            p: e.fail_prob,
        });
    }
    let n = net.node_count();
    let (si, ti) = (s.index(), t.index());

    let mut changed = true;
    while changed {
        changed = false;

        // parallel merges: group by normalized endpoint pair
        edges.sort_by_key(|e| (e.u.min(e.v), e.u.max(e.v)));
        let mut merged: Vec<WEdge> = Vec::with_capacity(edges.len());
        for e in edges.drain(..) {
            match merged.last_mut() {
                Some(last)
                    if (last.u.min(last.v), last.u.max(last.v)) == (e.u.min(e.v), e.u.max(e.v)) =>
                {
                    last.p *= e.p; // fails iff both fail
                    stats.parallel += 1;
                    changed = true;
                }
                _ => merged.push(e),
            }
        }
        edges = merged;

        // degree census
        let mut degree = vec![0usize; n];
        for e in &edges {
            degree[e.u] += 1;
            degree[e.v] += 1;
        }

        // dangling removal: non-terminal degree <= 1
        let before = edges.len();
        edges.retain(|e| {
            let dead = (degree[e.u] <= 1 && e.u != si && e.u != ti)
                || (degree[e.v] <= 1 && e.v != si && e.v != ti);
            !dead
        });
        if edges.len() != before {
            stats.dangling += before - edges.len();
            changed = true;
            continue; // degrees changed; restart the pass
        }

        // series merge: one non-terminal degree-2 node at a time
        for (mid, &deg) in degree.iter().enumerate() {
            if mid == si || mid == ti || deg != 2 {
                continue;
            }
            let incident: Vec<usize> = edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.u == mid || e.v == mid)
                .map(|(i, _)| i)
                .collect();
            debug_assert_eq!(incident.len(), 2);
            let (i, j) = (incident[0], incident[1]);
            let other = |e: &WEdge| if e.u == mid { e.v } else { e.u };
            let (a, b) = (other(&edges[i]), other(&edges[j]));
            if a == b {
                // a pendant 2-cycle through mid: no simple path uses it
                let mut k = 0;
                edges.retain(|_| {
                    let keep = k != i && k != j;
                    k += 1;
                    keep
                });
                stats.dangling += 1;
                changed = true;
                break;
            }
            // survival requires both halves: p = 1 - (1-p_i)(1-p_j)
            let p = 1.0 - (1.0 - edges[i].p) * (1.0 - edges[j].p);
            let (lo, hi) = (i.min(j), i.max(j));
            edges.remove(hi);
            edges.remove(lo);
            edges.push(WEdge { u: a, v: b, p });
            stats.series += 1;
            changed = true;
            break; // degrees changed; recompute
        }
    }

    // rebuild a compact network over the surviving nodes
    let mut keep: Vec<bool> = vec![false; n];
    keep[si] = true;
    keep[ti] = true;
    for e in &edges {
        keep[e.u] = true;
        keep[e.v] = true;
    }
    let mut remap = vec![usize::MAX; n];
    let mut b = NetworkBuilder::new(GraphKind::Undirected);
    for (i, &k) in keep.iter().enumerate() {
        if k {
            remap[i] = b.add_node().index();
        }
    }
    for e in &edges {
        b.add_edge(NodeId::from(remap[e.u]), NodeId::from(remap[e.v]), 1, e.p)
            .unwrap_or_else(|e| unreachable!("reduced probabilities stay in range: {e}"));
    }
    ReducedNetwork {
        net: b.build(),
        source: NodeId::from(remap[si]),
        sink: NodeId::from(remap[ti]),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::FlowDemand;
    use crate::naive::reliability_naive;
    use crate::options::CalcOptions;
    use netgraph::NetworkBuilder;
    use proptest::prelude::*;

    fn build(n: usize, edges: &[(usize, usize, f64)]) -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let ids = b.add_nodes(n);
        for &(u, v, p) in edges {
            b.add_edge(ids[u], ids[v], 1, p).unwrap();
        }
        b.build()
    }

    #[test]
    fn pure_series_chain_collapses() {
        let net = build(4, &[(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3)]);
        let red = reduce_unit_demand(&net, NodeId(0), NodeId(3));
        assert_eq!(red.net.edge_count(), 1);
        assert_eq!(red.stats.series, 2);
        let p = red.net.edge(netgraph::EdgeId(0)).fail_prob;
        let expected = 1.0 - 0.9 * 0.8 * 0.7;
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn pure_parallel_collapses() {
        let net = build(2, &[(0, 1, 0.1), (0, 1, 0.2), (0, 1, 0.3)]);
        let red = reduce_unit_demand(&net, NodeId(0), NodeId(1));
        assert_eq!(red.net.edge_count(), 1);
        assert_eq!(red.stats.parallel, 2);
        let p = red.net.edge(netgraph::EdgeId(0)).fail_prob;
        assert!((p - 0.1 * 0.2 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn dangling_and_loops_removed() {
        // s - t plus a dangling spur and a self loop
        let net = build(3, &[(0, 1, 0.1), (1, 2, 0.5), (0, 0, 0.2)]);
        let red = reduce_unit_demand(&net, NodeId(0), NodeId(1));
        assert_eq!(red.net.edge_count(), 1);
        assert_eq!(red.stats.dropped, 1);
        assert_eq!(red.stats.dangling, 1);
    }

    #[test]
    fn zero_capacity_links_dropped() {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let ids = b.add_nodes(2);
        b.add_edge(ids[0], ids[1], 0, 0.1).unwrap();
        b.add_edge(ids[0], ids[1], 1, 0.2).unwrap();
        let net = b.build();
        let red = reduce_unit_demand(&net, NodeId(0), NodeId(1));
        assert_eq!(red.net.edge_count(), 1);
        assert!((red.net.edge(netgraph::EdgeId(0)).fail_prob - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ladder_collapses_fully() {
        // ((series pair) parallel (series pair)) in series with one link
        let net = build(
            4,
            &[
                (0, 1, 0.1),
                (1, 2, 0.2),
                (0, 1, 0.15),
                (1, 2, 0.25),
                (2, 3, 0.05),
            ],
        );
        let red = reduce_unit_demand(&net, NodeId(0), NodeId(3));
        assert_eq!(
            red.net.edge_count(),
            1,
            "series-parallel graph collapses to one link"
        );
        let r_sp = 1.0 - red.net.edge(netgraph::EdgeId(0)).fail_prob;
        let naive = reliability_naive(
            &net,
            FlowDemand::new(NodeId(0), NodeId(3), 1),
            &CalcOptions::default(),
        )
        .unwrap();
        assert!((r_sp - naive).abs() < 1e-12);
    }

    #[test]
    fn huge_chain_beyond_naive_range() {
        // 64 series links: naive refuses, reduction is instant and exact
        let edges: Vec<(usize, usize, f64)> = (0..64)
            .map(|i| (i, i + 1, 0.01 + (i % 7) as f64 / 100.0))
            .collect();
        let net = build(65, &edges);
        let d = FlowDemand::new(NodeId(0), NodeId(64), 1);
        assert!(reliability_naive(&net, d, &CalcOptions::default()).is_err());
        let red = reduce_unit_demand(&net, d.source, d.sink);
        assert_eq!(red.net.edge_count(), 1);
        let r = 1.0 - red.net.edge(netgraph::EdgeId(0)).fail_prob;
        let expected: f64 = edges.iter().map(|&(_, _, p)| 1.0 - p).product();
        assert!((r - expected).abs() < 1e-12);
    }

    #[test]
    fn pendant_two_cycle_removed() {
        // s - t, plus a cycle hanging off a middle node
        let net = build(3, &[(0, 1, 0.1), (1, 2, 0.2), (1, 2, 0.3)]);
        // t = node 1; node 2 is a non-terminal connected only to node 1 (twice)
        let red = reduce_unit_demand(&net, NodeId(0), NodeId(1));
        assert_eq!(red.net.edge_count(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_reduction_preserves_reliability(
            n in 2usize..7,
            raw in proptest::collection::vec((0usize..7, 0usize..7, 1u32..31), 1..11),
        ) {
            let edges: Vec<(usize, usize, f64)> =
                raw.iter().map(|&(u, v, p)| (u % n, v % n, p as f64 / 32.0)).collect();
            let net = build(n, &edges);
            let d = FlowDemand::new(NodeId(0), NodeId::from(n - 1), 1);
            let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
            let red = reduce_unit_demand(&net, d.source, d.sink);
            let sp = reliability_naive(
                &red.net,
                FlowDemand::new(red.source, red.sink, 1),
                &CalcOptions::default(),
            )
            .unwrap();
            prop_assert!((naive - sp).abs() < 1e-10, "naive {} vs sp {}", naive, sp);
        }
    }
}
