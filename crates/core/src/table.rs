//! The paper-faithful array data structure of Section III-C.
//!
//! One entry per failure configuration of a side component; each entry is a
//! `|D|`-bit sequence whose bit `j` records whether the configuration
//! realizes assignment `j` (delivers the per-assignment sub-stream amounts
//! across the bottleneck). Built with `|D| · 2^{|E_c|}` max-flow invocations,
//! exactly as the paper describes.
//!
//! The streamed [`crate::spectrum::RealizationSpectrum`] supersedes this
//! structure for the actual computation (it needs `O(2^{|D|})` memory instead
//! of `O(2^{|E_c|})`); the table remains for illustration (regenerating
//! Table I and Fig. 5) and for the memory-ablation bench.

use crate::budget::BudgetSentinel;
use crate::error::ReliabilityError;
use crate::oracle::SideOracle;
use crate::spectrum::{check_assignments, check_side_edges};
use crate::sweep::{drive, CountWalk, Masks, PartialSweep, SweepConfig, SweepStats};

/// The realization array of one side: `masks[c]` has bit `j` set iff side
/// configuration `c` realizes assignment `j`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RealizationTable {
    /// Number of assignments `|D|` (bit width of each entry).
    pub assign_count: usize,
    /// Number of side links (the array has `2^side_edges` entries).
    pub side_edges: usize,
    /// One realization mask per failure configuration.
    pub masks: Vec<u32>,
}

impl RealizationTable {
    /// Builds the array by solving one max-flow per (configuration,
    /// assignment) pair. Assignments that fail even with every side link
    /// alive are not solved: by monotonicity of flow in link availability
    /// their bits are 0 in every entry.
    pub fn build(
        oracle: &mut SideOracle,
        max_side_edges: usize,
        max_assignments: usize,
    ) -> Result<Self, ReliabilityError> {
        Self::build_with(
            oracle,
            max_side_edges,
            max_assignments,
            &SweepConfig::serial(),
        )
        .map(|(t, _)| t)
    }

    /// Builds the array through the shared sweep engine ([`crate::sweep`]),
    /// returning the engine's counters alongside.
    pub fn build_with(
        oracle: &mut SideOracle,
        max_side_edges: usize,
        max_assignments: usize,
        cfg: &SweepConfig,
    ) -> Result<(Self, SweepStats), ReliabilityError> {
        let m = oracle.edge_count();
        let dn = oracle.assignment_count();
        check_assignments(dn, max_assignments)?;
        check_side_edges(m, max_side_edges)?;
        let live: Vec<usize> = (0..dn).filter(|&j| oracle.feasible_at_best(j)).collect();
        // the table records verdicts only, so unit weights do
        let ones = vec![(1.0, 1.0); m];
        let fresh = PartialSweep::fresh(Masks::new(0, 1 << m), 1 << m);
        let sentinel = BudgetSentinel::unlimited();
        // index `c` is configuration `c`: the link of index bit `j` is `j`
        let walk = CountWalk::<f64>::new(&ones, (0..m).collect());
        let (done, stats) = drive(&*oracle, &walk, &live, cfg, &sentinel, fresh);
        debug_assert!(done.is_complete(), "unlimited sweeps always finish");
        Ok((
            RealizationTable {
                assign_count: dn,
                side_edges: m,
                masks: done.visitor.masks,
            },
            stats,
        ))
    }

    /// The realization mask of configuration `c`.
    pub fn mask(&self, c: usize) -> u32 {
        self.masks[c]
    }

    /// The assignments realized by configuration `c`, as indices.
    pub fn realized(&self, c: usize) -> Vec<usize> {
        (0..self.assign_count)
            .filter(|&j| self.masks[c] >> j & 1 == 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assignment;
    use crate::decompose::Side;
    use maxflow::SolverKind;
    use netgraph::{EdgeMask, GraphKind, NetworkBuilder};

    fn asg(amounts: &[i64]) -> Assignment {
        Assignment {
            amounts: amounts.to_vec(),
        }
    }

    /// s with two unit links to one attach point.
    fn simple_side() -> Side {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: n[0],
            attach: vec![n[1]],
            is_source_side: true,
        }
    }

    #[test]
    fn table_records_monotone_realizations() {
        let side = simple_side();
        let assignments = vec![asg(&[1]), asg(&[2])];
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let t = RealizationTable::build(&mut o, 10, 10).unwrap();
        assert_eq!(t.masks.len(), 4);
        // config 00: nothing; 01/10: assignment (1) only; 11: both
        assert_eq!(t.mask(0b00), 0b00);
        assert_eq!(t.mask(0b01), 0b01);
        assert_eq!(t.mask(0b10), 0b01);
        assert_eq!(t.mask(0b11), 0b11);
        assert_eq!(t.realized(0b11), vec![0, 1]);
    }

    #[test]
    fn pruning_matches_unpruned() {
        let side = simple_side();
        // (3) is infeasible even with both links alive
        let assignments = vec![asg(&[1]), asg(&[3])];
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let pruned = RealizationTable::build(&mut o, 10, 10).unwrap();
        // every bit solved, the pruned lane included
        let mut o2 = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        for (c, &mask) in pruned.masks.iter().enumerate() {
            let mut full = 0;
            for j in 0..assignments.len() {
                o2.set_assignment(j);
                full |= u32::from(o2.admits(EdgeMask::from_bits(c as u64, 2))) << j;
            }
            assert_eq!(mask, full, "configuration {c}");
        }
    }

    #[test]
    fn certificates_do_not_change_the_table() {
        let side = simple_side();
        let assignments = vec![asg(&[1]), asg(&[2])];
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let (plain, s0) =
            RealizationTable::build_with(&mut o, 10, 10, &SweepConfig::serial()).unwrap();
        let mut o2 = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let cfg = SweepConfig {
            certificates: true,
            ..SweepConfig::serial()
        };
        let (cached, s1) = RealizationTable::build_with(&mut o2, 10, 10, &cfg).unwrap();
        assert_eq!(plain, cached, "cache hits must reproduce every table entry");
        assert_eq!(s0.solver_calls_avoided(), 0);
        assert!(s1.solver_calls_avoided() > 0);
    }

    #[test]
    fn bounds_enforced() {
        let side = simple_side();
        let assignments = vec![asg(&[1])];
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        assert!(matches!(
            RealizationTable::build(&mut o, 1, 10),
            Err(ReliabilityError::SideTooLarge { count: 2, max: 1 })
        ));
        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        assert!(matches!(
            RealizationTable::build(&mut o, 10, 0),
            Err(ReliabilityError::TooManyAssignments { .. })
        ));
    }
}
