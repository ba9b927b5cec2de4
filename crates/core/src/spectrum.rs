//! The realization spectrum: a streamed, probability-weighted aggregate of
//! the Section III-C array.
//!
//! The accumulation of Section IV never needs the per-configuration array
//! entries themselves — only, for every subset `X` of the assignment set,
//! the total probability of the configurations whose realization mask
//! relates to `X`. The spectrum therefore aggregates on the fly:
//!
//! `mass[m] = Σ { P(config) : config's realization mask == m }`
//!
//! for every mask `m ⊆ D`. This replaces the `O(2^{|E_c|})` array with an
//! `O(2^{|D|})` vector (`|D| ≤ d^k` is a small constant in the paper's
//! regime) while performing the same `|D| · 2^{|E_c|}` max-flow invocations.
//!
//! The builder is generic over [`Weight`], so the same sweep produces either
//! compensated-`f64` or exact-rational masses.

use crate::budget::BudgetSentinel;
use crate::error::ReliabilityError;
use crate::oracle::SideOracle;
use crate::sweep::{drive, CountWalk, Masses, PartialSweep, SweepConfig, SweepStats};
use crate::weight::{EdgeWeights, Weight};

/// Probability mass of each realization mask for one side.
#[derive(Clone, Debug, PartialEq)]
pub struct RealizationSpectrum<W> {
    /// Number of assignments `|D|`.
    pub assign_count: usize,
    /// `mass[m]` = total probability of side configurations whose realization
    /// mask is exactly `m`; indices run over `0..2^assign_count`.
    pub mass: Vec<W>,
}

impl<W: Weight> RealizationSpectrum<W> {
    /// Builds the spectrum for one side with the legacy serial,
    /// certificate-free sweep.
    ///
    /// `weights[i]` is the `(alive, failed)` probability pair of side link
    /// `i` (indexed like the side's own edges).
    pub fn build(
        oracle: &mut SideOracle,
        weights: &EdgeWeights<W>,
        max_side_edges: usize,
        max_assignments: usize,
        prune_infeasible: bool,
    ) -> Result<Self, ReliabilityError> {
        Self::build_with(
            oracle,
            weights,
            max_side_edges,
            max_assignments,
            prune_infeasible,
            &SweepConfig::serial(),
        )
        .map(|(sp, _)| sp)
    }

    /// Builds the spectrum through the shared sweep engine
    /// ([`crate::sweep`]), returning the engine's counters alongside.
    pub fn build_with(
        oracle: &mut SideOracle,
        weights: &EdgeWeights<W>,
        max_side_edges: usize,
        max_assignments: usize,
        prune_infeasible: bool,
        cfg: &SweepConfig,
    ) -> Result<(Self, SweepStats), ReliabilityError> {
        let m = oracle.edge_count();
        let dn = oracle.assignment_count();
        assert_eq!(weights.len(), m, "one weight pair per side link");
        if m > max_side_edges {
            return Err(ReliabilityError::SideTooLarge {
                count: m,
                max: max_side_edges,
            });
        }
        if dn > max_assignments || dn > 31 {
            return Err(ReliabilityError::TooManyAssignments {
                count: dn,
                max: max_assignments.min(31),
            });
        }
        let live: Vec<usize> = (0..dn)
            .filter(|&j| !prune_infeasible || oracle.feasible_at_best(j))
            .collect();
        let fresh = PartialSweep::fresh(Masses(vec![W::zero(); 1 << dn]), 1 << m);
        let sentinel = BudgetSentinel::unlimited();
        let walk = CountWalk::new(weights);
        let (done, stats) = drive(&*oracle, &walk, &live, cfg, &sentinel, fresh);
        debug_assert!(done.is_complete(), "unlimited sweeps always finish");
        Ok((
            RealizationSpectrum {
                assign_count: dn,
                mass: done.visitor.0,
            },
            stats,
        ))
    }

    /// Total mass (must be 1 up to rounding — the configurations partition
    /// the side's probability space).
    pub fn total(&self) -> W {
        let mut t = W::zero();
        for w in &self.mass {
            t = t.add(w);
        }
        t
    }
}

/// Probability of configuration `c` over `m` links with the given weights
/// (direct product; the engine's split-product table is validated against
/// this in the tests).
#[cfg(test)]
fn config_weight<W: Weight>(weights: &EdgeWeights<W>, c: u64, m: usize) -> W {
    let mut p = W::one();
    for (i, w) in weights.iter().enumerate().take(m) {
        p = p.mul(if c >> i & 1 == 1 { &w.0 } else { &w.1 });
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assignment;
    use crate::decompose::Side;
    use crate::sweep::SweepConfig;
    use crate::table::RealizationTable;
    use exactmath::BigRational;
    use maxflow::SolverKind;
    use netgraph::{GraphKind, NetworkBuilder};

    fn asg(amounts: &[i64]) -> Assignment {
        Assignment {
            amounts: amounts.to_vec(),
        }
    }

    fn side_with_three_links() -> Side {
        // s -> a (cap 1), s -> a (cap 1), s -> b (cap 2); attach a, b
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[1], 1, 0.3).unwrap();
        b.add_edge(n[0], n[2], 2, 0.2).unwrap();
        Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: n[0],
            attach: vec![n[1], n[2]],
            is_source_side: true,
        }
    }

    fn weights_of(side: &Side) -> EdgeWeights<f64> {
        crate::weight::edge_weights(&side.net)
    }

    #[test]
    fn spectrum_masses_sum_to_one() {
        let side = side_with_three_links();
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1]), asg(&[0, 2])];
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let sp = RealizationSpectrum::build(&mut o, &weights_of(&side), 26, 20, true).unwrap();
        assert_eq!(sp.mass.len(), 8);
        assert!((sp.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spectrum_agrees_with_table() {
        let side = side_with_three_links();
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1]), asg(&[0, 2])];
        let weights = weights_of(&side);

        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let sp = RealizationSpectrum::build(&mut o, &weights, 26, 20, true).unwrap();

        let mut o2 = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let table = RealizationTable::build(&mut o2, 26, 20, true).unwrap();
        let mut expected = vec![0.0; 8];
        for (c, &mask) in table.masks.iter().enumerate() {
            expected[mask as usize] += config_weight(&weights, c as u64, 3);
        }
        for (a, b) in sp.mass.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_spectrum_matches_float() {
        let side = side_with_three_links();
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1]), asg(&[0, 2])];
        let wf = weights_of(&side);
        let we = crate::weight::edge_weights_exact(&side.net);

        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let spf = RealizationSpectrum::build(&mut o, &wf, 26, 20, true).unwrap();
        let mut o2 = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let spe: RealizationSpectrum<BigRational> =
            RealizationSpectrum::build(&mut o2, &we, 26, 20, false).unwrap();
        assert_eq!(spe.total(), BigRational::one());
        for (f, e) in spf.mass.iter().zip(&spe.mass) {
            assert!((f - e.to_f64()).abs() < 1e-12);
        }
    }

    #[test]
    fn certificate_hits_do_not_change_masses() {
        let side = side_with_three_links();
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1]), asg(&[0, 2])];
        let weights = weights_of(&side);
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let (plain, s0) =
            RealizationSpectrum::build_with(&mut o, &weights, 26, 20, true, &SweepConfig::serial())
                .unwrap();
        let mut o2 = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let cfg = SweepConfig {
            certificates: true,
            ..SweepConfig::serial()
        };
        let (cached, s1) =
            RealizationSpectrum::build_with(&mut o2, &weights, 26, 20, true, &cfg).unwrap();
        assert_eq!(plain.mass, cached.mass, "cache hits must not move any mass");
        assert_eq!(s0.solver_calls_avoided(), 0);
        assert!(
            s1.solver_calls_avoided() > 0,
            "8 configs x 3 assignments must yield hits"
        );
        assert_eq!(s1.configs, s0.configs);
    }

    #[test]
    fn block_boundaries_are_exact() {
        // more links than one block would hold if BLOCK_BITS were tiny is
        // impractical here; instead check a side whose edge count is not a
        // multiple of the block size still sums to 1
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        for i in 0..5 {
            b.add_edge(n[0], n[1], 1, 0.1 + 0.05 * i as f64).unwrap();
        }
        let side = Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: n[0],
            attach: vec![n[1]],
            is_source_side: true,
        };
        let assignments = vec![asg(&[1]), asg(&[2])];
        let weights = crate::weight::edge_weights(&side.net);
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let sp = RealizationSpectrum::build(&mut o, &weights, 26, 20, true).unwrap();
        assert!((sp.total() - 1.0).abs() < 1e-12);
        // mask 0b10 alone (realizes (2) but not (1)) is impossible: monotone
        assert_eq!(sp.mass[0b10], 0.0);
    }
}
