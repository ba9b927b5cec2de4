//! The reliability polynomial for uniform link-failure probability.
//!
//! When every link fails with the same probability `p`, the reliability is a
//! polynomial in `p`:
//!
//! `R(p) = Σ_{i=0..|E|} N_i · (1−p)^i · p^{|E|−i}`
//!
//! where `N_i` counts the failure configurations with exactly `i` alive links
//! that admit the demand. The counts are structural — they depend only on the
//! topology, capacities and demand, not on `p` — so one enumeration answers
//! *every* uniform failure rate at once (percolation-style sweeps, e.g.
//! "at what churn level does the overlay collapse?").

use netgraph::{EdgeMask, Network};

use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::options::{CalcOptions, MAX_ENUM_EDGES};
use crate::oracle::DemandOracle;

/// The structural coefficients of the reliability polynomial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReliabilityPolynomial {
    /// `counts[i]` = number of operational configurations with exactly `i`
    /// alive links.
    pub counts: Vec<u64>,
    /// Number of links `|E|`.
    pub edges: usize,
}

impl ReliabilityPolynomial {
    /// Evaluates `R(p)` for a uniform failure probability `p ∈ [0, 1]`.
    pub fn evaluate(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let q = 1.0 - p;
        let mut r = 0.0;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            r += n as f64 * q.powi(i as i32) * p.powi((self.edges - i) as i32);
        }
        r
    }

    /// Number of operational configurations in total.
    pub fn operational_configurations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The smallest number of surviving links that can still admit the
    /// demand (`None` when no configuration does).
    pub fn min_operational_links(&self) -> Option<usize> {
        self.counts.iter().position(|&n| n > 0)
    }
}

/// Computes the reliability polynomial by a single `2^|E|` sweep.
pub fn reliability_polynomial(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<ReliabilityPolynomial, ReliabilityError> {
    demand.validate(net)?;
    let m = net.edge_count();
    if m > EdgeMask::MAX_EDGES {
        return Err(ReliabilityError::EdgeMaskOverflow {
            count: m,
            max: EdgeMask::MAX_EDGES,
        });
    }
    if m > MAX_ENUM_EDGES {
        return Err(ReliabilityError::TooManyEdges {
            count: m,
            max: MAX_ENUM_EDGES,
        });
    }
    let mut counts = vec![0u64; m + 1];
    if demand.demand == 0 {
        // every configuration admits a zero demand
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = binomial(m as u64, i as u64);
        }
        return Ok(ReliabilityPolynomial { counts, edges: m });
    }
    let mut oracle = DemandOracle::new(net, demand.source, demand.sink, demand.demand, opts.solver);
    if oracle.max_flow_all_alive() < demand.demand {
        return Ok(ReliabilityPolynomial { counts, edges: m });
    }
    for bits in 0..(1u64 << m) {
        let mask = EdgeMask::from_bits(bits, m);
        if oracle.admits(mask) {
            counts[mask.alive_count()] += 1;
        }
    }
    Ok(ReliabilityPolynomial { counts, edges: m })
}

fn binomial(n: u64, k: u64) -> u64 {
    let k = k.min(n - k);
    let mut r = 1u64;
    for i in 0..k {
        r = r * (n - i) / (i + 1);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::reliability_naive;
    use netgraph::{GraphKind, NetworkBuilder, NodeId};

    fn uniform_net(p: f64) -> Network {
        // diamond with uniform probability
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 1, p).unwrap();
        b.add_edge(n[0], n[2], 1, p).unwrap();
        b.add_edge(n[1], n[3], 1, p).unwrap();
        b.add_edge(n[2], n[3], 1, p).unwrap();
        b.build()
    }

    #[test]
    fn single_link_polynomial() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.5).unwrap();
        let net = b.build();
        let poly = reliability_polynomial(
            &net,
            FlowDemand::new(n[0], n[1], 1),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(poly.counts, vec![0, 1]);
        assert!((poly.evaluate(0.3) - 0.7).abs() < 1e-12);
        assert_eq!(poly.min_operational_links(), Some(1));
    }

    #[test]
    fn matches_naive_at_sample_points() {
        for p in [0.0f64, 0.1, 0.25, 0.5, 0.9] {
            let net = uniform_net(p.clamp(1e-9, 0.999));
            let d = FlowDemand::new(NodeId(0), NodeId(3), 1);
            let poly = reliability_polynomial(&net, d, &CalcOptions::default()).unwrap();
            let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
            let via_poly = poly.evaluate(net.edge(netgraph::EdgeId(0)).fail_prob);
            assert!(
                (via_poly - naive).abs() < 1e-12,
                "p={p}: poly {via_poly} vs naive {naive}"
            );
        }
    }

    #[test]
    fn counts_are_structural() {
        // the counts must not depend on the probabilities at all
        let a = reliability_polynomial(
            &uniform_net(0.1),
            FlowDemand::new(NodeId(0), NodeId(3), 1),
            &CalcOptions::default(),
        )
        .unwrap();
        let b = reliability_polynomial(
            &uniform_net(0.7),
            FlowDemand::new(NodeId(0), NodeId(3), 1),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(a, b);
        // diamond, d=1: works with {e0,e2}, {e1,e3} (2 of the C(4,2)=6
        // two-link configs), all four 3-link configs, and the full config
        assert_eq!(a.counts, vec![0, 0, 2, 4, 1]);
        assert_eq!(a.operational_configurations(), 7);
        assert_eq!(a.min_operational_links(), Some(2));
    }

    #[test]
    fn demand_two_needs_more_links() {
        let net = uniform_net(0.2);
        let poly = reliability_polynomial(
            &net,
            FlowDemand::new(NodeId(0), NodeId(3), 2),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(poly.min_operational_links(), Some(4), "both paths required");
        assert_eq!(poly.counts, vec![0, 0, 0, 0, 1]);
    }

    #[test]
    fn infeasible_demand_gives_zero_polynomial() {
        let net = uniform_net(0.2);
        let poly = reliability_polynomial(
            &net,
            FlowDemand::new(NodeId(0), NodeId(3), 5),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(poly.operational_configurations(), 0);
        assert_eq!(poly.evaluate(0.1), 0.0);
        assert_eq!(poly.min_operational_links(), None);
    }

    #[test]
    fn zero_demand_counts_everything() {
        let net = uniform_net(0.2);
        let poly = reliability_polynomial(
            &net,
            FlowDemand::new(NodeId(0), NodeId(3), 0),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(poly.counts, vec![1, 4, 6, 4, 1]);
        assert!((poly.evaluate(0.37) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_links_than_a_mask_holds_is_an_error_not_a_panic() {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(66);
        for i in 0..65 {
            b.add_edge(n[i], n[i + 1], 1, 0.01).unwrap();
        }
        let err = reliability_polynomial(
            &b.build(),
            FlowDemand::new(n[0], n[65], 1),
            &CalcOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ReliabilityError::EdgeMaskOverflow { count: 65, .. }
        ));
    }

    #[test]
    fn evaluate_at_extremes() {
        let net = uniform_net(0.2);
        let d = FlowDemand::new(NodeId(0), NodeId(3), 1);
        let poly = reliability_polynomial(&net, d, &CalcOptions::default()).unwrap();
        assert_eq!(poly.evaluate(0.0), 1.0, "no failures: the diamond works");
        assert_eq!(poly.evaluate(1.0), 0.0, "all links failed");
    }
}
