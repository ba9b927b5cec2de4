//! Link importance measures.
//!
//! The Birnbaum importance of link `e` is the sensitivity of the reliability
//! to that link's survival:
//!
//! `I_B(e) = ∂R/∂r_e = R(e pinned up) − R(e pinned down)`
//!
//! where `r_e = 1 − p(e)`. The improvement potential `p(e) · I_B(e)` is the
//! reliability gained by making `e` perfect — the quantity a capacity-planning
//! tool ranks links by (see `examples/capacity_planning.rs`).
//!
//! Computed exactly with two conditioned factoring runs per link (conditioning
//! is just pinning the link's weight pair), each run to completion by the
//! same body as [`crate::factoring::reliability_factoring`]: a walk on the
//! sweep driver, with its certificate cache, closed subcubes and, under
//! [`CalcOptions::parallel`], fan-out. Like factoring, it refuses
//! multi-state networks.

use netgraph::Network;

use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::factoring::factoring_complete;
use crate::options::CalcOptions;
use crate::weight::edge_weights;

/// Per-link importance report.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkImportance {
    /// Birnbaum importance `I_B(e)` of each link, in edge order.
    pub birnbaum: Vec<f64>,
    /// Improvement potential `p(e) · I_B(e)` of each link.
    pub improvement: Vec<f64>,
    /// The unconditioned reliability.
    pub reliability: f64,
}

impl LinkImportance {
    /// Indices of the links sorted by decreasing improvement potential.
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.improvement.len()).collect();
        order.sort_by(|&a, &b| self.improvement[b].total_cmp(&self.improvement[a]));
        order
    }
}

/// Computes Birnbaum importances for every link.
pub fn birnbaum_importance(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<LinkImportance, ReliabilityError> {
    demand.validate(net)?;
    let base_weights = edge_weights(net);
    let reliability = factoring_complete(net, demand, &base_weights, opts)?;
    let m = net.edge_count();
    let mut birnbaum = Vec::with_capacity(m);
    let mut improvement = Vec::with_capacity(m);
    for e in 0..m {
        let mut up = base_weights.clone();
        up[e] = (1.0, 0.0); // link e always works
        let r_up = factoring_complete(net, demand, &up, opts)?;
        let mut down = base_weights.clone();
        down[e] = (0.0, 1.0); // link e always failed
        let r_down = factoring_complete(net, demand, &down, opts)?;
        let ib = r_up - r_down;
        birnbaum.push(ib);
        improvement.push(net.edge(netgraph::EdgeId::from(e)).fail_prob * ib);
    }
    Ok(LinkImportance {
        birnbaum,
        improvement,
        reliability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::reliability_naive;
    use netgraph::{GraphKind, NetworkBuilder};

    #[test]
    fn series_importance_is_product_of_others() {
        // s -0.9- a -0.8- t: I_B(e0) = r1 = 0.8, I_B(e1) = r0 = 0.9
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.2).unwrap();
        let net = b.build();
        let imp = birnbaum_importance(
            &net,
            FlowDemand::new(n[0], n[2], 1),
            &CalcOptions::default(),
        )
        .unwrap();
        assert!((imp.birnbaum[0] - 0.8).abs() < 1e-12);
        assert!((imp.birnbaum[1] - 0.9).abs() < 1e-12);
        assert!((imp.reliability - 0.72).abs() < 1e-12);
    }

    #[test]
    fn parallel_importance_is_other_failing() {
        // two parallel links: I_B(e0) = p1 (matters only when e1 is down)
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[1], 1, 0.2).unwrap();
        let net = b.build();
        let imp = birnbaum_importance(
            &net,
            FlowDemand::new(n[0], n[1], 1),
            &CalcOptions::default(),
        )
        .unwrap();
        assert!((imp.birnbaum[0] - 0.2).abs() < 1e-12);
        assert!((imp.birnbaum[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn improvement_predicts_perfecting_a_link() {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 1, 0.2).unwrap();
        b.add_edge(n[1], n[3], 1, 0.3).unwrap();
        b.add_edge(n[0], n[2], 1, 0.1).unwrap();
        b.add_edge(n[2], n[3], 1, 0.25).unwrap();
        let net = b.build();
        let d = FlowDemand::new(n[0], n[3], 1);
        let imp = birnbaum_importance(&net, d, &CalcOptions::default()).unwrap();
        // perfecting link e: new reliability = R + p_e * I_B(e)
        for e in 0..net.edge_count() {
            let mut b2 = NetworkBuilder::new(GraphKind::Undirected);
            let n2 = b2.add_nodes(4);
            for (i, edge) in net.edges().iter().enumerate() {
                let p = if i == e { 0.0 } else { edge.fail_prob };
                b2.add_edge(n2[edge.src.index()], n2[edge.dst.index()], 1, p)
                    .unwrap();
            }
            let perfected = reliability_naive(&b2.build(), d, &CalcOptions::default()).unwrap();
            let predicted = imp.reliability + imp.improvement[e];
            assert!(
                (perfected - predicted).abs() < 1e-12,
                "link {e}: perfected {perfected} vs predicted {predicted}"
            );
        }
    }

    #[test]
    fn ranking_is_descending() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.4).unwrap();
        b.add_edge(n[1], n[2], 1, 0.05).unwrap();
        let net = b.build();
        let imp = birnbaum_importance(
            &net,
            FlowDemand::new(n[0], n[2], 1),
            &CalcOptions::default(),
        )
        .unwrap();
        let order = imp.ranked();
        assert_eq!(order[0], 0, "the flakiest series link dominates");
        assert!(imp.improvement[order[0]] >= imp.improvement[order[1]]);
    }

    #[test]
    fn irrelevant_link_has_zero_importance() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[2], n[2], 1, 0.5).unwrap(); // self loop, never on a path
        let net = b.build();
        let imp = birnbaum_importance(
            &net,
            FlowDemand::new(n[0], n[1], 1),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(imp.birnbaum[1], 0.0);
        assert_eq!(imp.improvement[1], 0.0);
    }
}
