//! The weight abstraction: one generic implementation, two value domains.
//!
//! The sweep engine ([`crate::sweep`]), the naive sweep, the bottleneck
//! split body ([`crate::spectrum`]) and the accumulation
//! ([`crate::accumulate`]) are written once, generically over [`Weight`],
//! and instantiated at `f64` (fast) and [`exactmath::BigRational`] (exact).
//! Both instantiations execute the *same* code — the split body is the one
//! the plan interpreter's `Cut` slots run — so the exact run validates the
//! float sweeps and accumulation. The plan interpreter's combinators
//! (bridges, peels, certified intervals) are `f64` only.

use exactmath::BigRational;
use netgraph::{Network, StateExpansion};

/// A commutative ring with subtraction, rich enough for probability algebra.
pub trait Weight: Clone + PartialEq + std::fmt::Debug + Send + Sync {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// `self + other`.
    fn add(&self, other: &Self) -> Self;
    /// `self - other`.
    fn sub(&self, other: &Self) -> Self;
    /// `self * other`.
    fn mul(&self, other: &Self) -> Self;
    /// True when equal to zero.
    fn is_zero(&self) -> bool;
}

impl Weight for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
}

impl Weight for BigRational {
    fn zero() -> Self {
        BigRational::zero()
    }
    fn one() -> Self {
        BigRational::one()
    }
    fn add(&self, other: &Self) -> Self {
        BigRational::add(self, other)
    }
    fn sub(&self, other: &Self) -> Self {
        BigRational::sub(self, other)
    }
    fn mul(&self, other: &Self) -> Self {
        BigRational::mul(self, other)
    }
    fn is_zero(&self) -> bool {
        BigRational::is_zero(self)
    }
}

/// Per-edge `(alive, failed)` probability pair: `(1 − p(e), p(e))`.
pub type EdgeWeights<W> = Vec<(W, W)>;

/// The `(1 − p, p)` pairs of every edge, as `f64`.
pub fn edge_weights(net: &Network) -> EdgeWeights<f64> {
    net.edges()
        .iter()
        .map(|e| (1.0 - e.fail_prob, e.fail_prob))
        .collect()
}

/// The `(1 − p, p)` pairs of every edge, as exact rationals. The stored `f64`
/// probabilities convert exactly (they are dyadic rationals), so the exact
/// computation models precisely the same network the float one does.
pub fn edge_weights_exact(net: &Network) -> EdgeWeights<BigRational> {
    net.edges()
        .iter()
        .map(|e| {
            let p = BigRational::from_f64(e.fail_prob);
            (p.complement(), p)
        })
        .collect()
}

/// Per-digit state probability vectors: `weights[j][v]` is the probability
/// of state digit `j` (of a tranche expansion) holding state `v`.
pub type DigitWeights<W> = Vec<Vec<W>>;

/// The per-digit state probabilities of a tranche expansion, as `f64` —
/// binary digits contribute `[p, 1 − p]`, multi-state digits their spectrum
/// probabilities ascending by capacity.
pub fn digit_weights(x: &StateExpansion) -> DigitWeights<f64> {
    x.digits.iter().map(|d| d.probs.clone()).collect()
}

/// The per-digit state probabilities of a tranche expansion, as exact
/// rationals (the stored `f64` probabilities are dyadic, so the conversion
/// is exact).
pub fn digit_weights_exact(x: &StateExpansion) -> DigitWeights<BigRational> {
    x.digits
        .iter()
        .map(|d| d.probs.iter().map(|&p| BigRational::from_f64(p)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{GraphKind, NetworkBuilder};

    #[test]
    fn f64_ring_ops() {
        assert_eq!(Weight::add(&2.0, &3.0), 5.0);
        assert_eq!(Weight::mul(&2.0, &3.0), 6.0);
        assert_eq!(Weight::sub(&2.0, &3.0), -1.0);
        assert!(Weight::is_zero(&0.0));
        assert!(!Weight::is_zero(&1e-300));
    }

    #[test]
    fn rational_ring_ops() {
        let half = BigRational::from_ratio(1, 2);
        let third = BigRational::from_ratio(1, 3);
        assert_eq!(Weight::add(&half, &third), BigRational::from_ratio(5, 6));
        assert_eq!(Weight::mul(&half, &third), BigRational::from_ratio(1, 6));
        assert!(Weight::is_zero(&BigRational::zero()));
    }

    #[test]
    fn weights_complement() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.25).unwrap();
        let net = b.build();
        let w = edge_weights(&net);
        assert_eq!(w[0], (0.75, 0.25));
        let we = edge_weights_exact(&net);
        assert_eq!(we[0].1, BigRational::from_ratio(1, 4));
        assert_eq!(we[0].0, BigRational::from_ratio(3, 4));
    }
}
