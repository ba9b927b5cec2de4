//! The realization spectrum: a streamed, probability-weighted aggregate of
//! the Section III-C array, and the one body that sweeps it.
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
//! Every bottleneck split runs through this module, generic over
//! [`Weight`]:
//!
//! - `sweep_side` is the one side sweep: bounds, the live assignments, a
//!   fresh or resumed mass vector, the counting walk, and the sweep driver
//!   ([`crate::sweep`]) under a budget sentinel;
//! - `Split` is the glue around it: assignment set → decomposition → both
//!   side sweeps (joined when parallel) → support masks and cut weights.
//!
//! The plan interpreter's `Cut` slot and `DeepCut` sweep sides run them at
//! `f64` under their sentinels ([`crate::plan`]);
//! [`crate::algorithm::reliability_bottleneck_exact`] runs them at
//! [`exactmath::BigRational`] under an unlimited one (`split_value`), so
//! the exact run validates the code the product runs.

use netgraph::Network;

use crate::accumulate::combine;
use crate::assign::{
    crossing_ranges, enumerate_assignments, supported_assignment_masks, Assignment,
};
use crate::bottleneck::BottleneckSet;
use crate::budget::BudgetSentinel;
use crate::checkpoint::{SideCheckpoint, SweepCursor};
use crate::decompose::{decompose, Decomposition, Side};
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::options::{CalcOptions, MAX_SIDE_EDGES};
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
    /// Sweeps `side`'s spectrum against `assignments` to completion: the one
    /// side sweep under an unlimited sentinel, with `opts`' solver and sweep
    /// settings. `weights[i]` is the `(alive, failed)` probability pair of
    /// side link `i`. Returns the engine's counters alongside.
    pub fn sweep(
        side: &Side,
        assignments: &[Assignment],
        weights: &EdgeWeights<W>,
        opts: &CalcOptions,
    ) -> Result<(Self, SweepStats), ReliabilityError> {
        assert_eq!(
            weights.len(),
            side.net.edge_count(),
            "one weight pair per side link"
        );
        let sentinel = BudgetSentinel::unlimited();
        let (done, stats) = sweep_side(side, assignments, weights, opts, &sentinel, None)?;
        debug_assert!(done.cursor.remaining.is_empty(), "unlimited sweeps finish");
        let spectrum = RealizationSpectrum {
            assign_count: assignments.len(),
            mass: done.mass,
        };
        Ok((spectrum, stats))
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

/// Refuses more than `max_assignments` assignments, or more than the 31 a
/// `u32` realization mask holds.
pub(crate) fn check_assignments(dn: usize, max_assignments: usize) -> Result<(), ReliabilityError> {
    let max = max_assignments.min(31);
    if dn > max {
        return Err(ReliabilityError::TooManyAssignments { count: dn, max });
    }
    Ok(())
}

/// Refuses a side sweep over more than `max` links.
pub(crate) fn check_side_edges(m: usize, max: usize) -> Result<(), ReliabilityError> {
    if m > max {
        return Err(ReliabilityError::SideTooLarge { count: m, max });
    }
    Ok(())
}

/// Sweeps one side's realization spectrum against `assignments` under
/// `sentinel`, fresh or from `resume`, and returns the side's state after
/// the sweep (complete once no cursor range remains). A fresh sweep tests
/// only the assignments the side realizes with every link alive: by
/// monotonicity no configuration realizes the others, so their bits stay 0.
/// A resumed state must already be validated against this side.
pub(crate) fn sweep_side<W: Weight>(
    side: &Side,
    assignments: &[Assignment],
    weights: &[(W, W)],
    opts: &CalcOptions,
    sentinel: &BudgetSentinel,
    resume: Option<SideCheckpoint<W>>,
) -> Result<(SideCheckpoint<W>, SweepStats), ReliabilityError> {
    let dn = assignments.len();
    let mut oracle = SideOracle::new(side, assignments, opts.solver)?;
    let m = oracle.edge_count();
    check_assignments(dn, opts.max_assignments)?;
    check_side_edges(m, MAX_SIDE_EDGES)?;
    let (live, state) = match resume {
        Some(ck) => (
            ck.live,
            PartialSweep {
                visitor: Masses(ck.mass),
                remaining: ck.cursor.remaining,
                certs: ck.certs,
            },
        ),
        None => (
            (0..dn).filter(|&j| oracle.feasible_at_best(j)).collect(),
            PartialSweep::fresh(Masses(vec![W::zero(); 1 << dn]), 1 << m),
        ),
    };
    let walk = CountWalk::new(weights);
    let cfg = SweepConfig::from_opts(opts);
    let (part, stats) = drive(&oracle, &walk, &live, &cfg, sentinel, state);
    let state = SideCheckpoint {
        cursor: SweepCursor {
            total: 1 << m,
            remaining: part.remaining,
        },
        live,
        mass: part.visitor.0,
        certs: part.certs,
    };
    Ok((state, stats))
}

/// A bottleneck split ready to sweep: the assignment set `D`
/// (Section III-B), the two sides, per cut configuration the mask of the
/// assignments it supports, and the cut links' weights, all at weight `W`.
pub(crate) struct Split<W> {
    pub(crate) assignments: Vec<Assignment>,
    pub(crate) dec: Decomposition,
    pub(crate) support: Vec<u32>,
    /// `(alive, failed)` weights of the cut links, in cut order.
    pub(crate) cut_weights: Vec<(W, W)>,
    /// The link weights of a network (the whole one, or a side).
    weigh: fn(&Network) -> EdgeWeights<W>,
}

impl<W: Weight> Split<W> {
    /// Enumerates `D` under `opts`' assignment model and decomposes `net`
    /// along `set`, with link weights `weigh`. Refuses more assignments
    /// than the masks hold.
    pub(crate) fn new(
        net: &Network,
        demand: &FlowDemand,
        set: &BottleneckSet,
        weigh: fn(&Network) -> EdgeWeights<W>,
        opts: &CalcOptions,
    ) -> Result<Self, ReliabilityError> {
        let ranges = crossing_ranges(
            net,
            &set.edges,
            &set.forward_oriented,
            demand.demand,
            opts.assignment_model,
        );
        let assignments = enumerate_assignments(demand.demand, &ranges);
        check_assignments(assignments.len(), opts.max_assignments)?;
        let dec = decompose(net, demand, set);
        let support = supported_assignment_masks(&assignments, dec.cut.len());
        let weights = weigh(net);
        let cut_weights = dec
            .cut
            .iter()
            .map(|&e| weights[e.index()].clone())
            .collect();
        Ok(Split {
            assignments,
            dec,
            support,
            cut_weights,
            weigh,
        })
    }

    /// Sweeps both sides under `sentinel` — serially in s-then-t order, or
    /// under `rayon::join` — each fresh or from its validated resume state.
    /// Returns both states and the merged counters.
    pub(crate) fn sweep(
        &self,
        opts: &CalcOptions,
        sentinel: &BudgetSentinel,
        (resume_s, resume_t): (Option<SideCheckpoint<W>>, Option<SideCheckpoint<W>>),
    ) -> Result<(SideCheckpoint<W>, SideCheckpoint<W>, SweepStats), ReliabilityError> {
        let sweep = |side: &Side, resume| {
            let weights = (self.weigh)(&side.net);
            sweep_side(side, &self.assignments, &weights, opts, sentinel, resume)
        };
        let (s, t) = if opts.parallel {
            rayon::join(
                || sweep(&self.dec.side_s, resume_s),
                || sweep(&self.dec.side_t, resume_t),
            )
        } else {
            (
                sweep(&self.dec.side_s, resume_s),
                sweep(&self.dec.side_t, resume_t),
            )
        };
        let ((s, mut stats), (t, stats_t)) = (s?, t?);
        stats.merge(&stats_t);
        Ok((s, t, stats))
    }
}

/// The reliability of the split on `set` at weight `W`: both sides swept to
/// completion under an unlimited sentinel, then ACCUMULATION (Section IV).
pub(crate) fn split_value<W: Weight>(
    net: &Network,
    demand: FlowDemand,
    set: &BottleneckSet,
    weigh: fn(&Network) -> EdgeWeights<W>,
    opts: &CalcOptions,
) -> Result<W, ReliabilityError> {
    if demand.demand == 0 {
        return Ok(W::one());
    }
    let split = Split::new(net, &demand, set, weigh, opts)?;
    let dn = split.assignments.len();
    if dn == 0 {
        // the bottleneck cannot carry d at all
        return Ok(W::zero());
    }
    let sentinel = BudgetSentinel::unlimited();
    let (s, t, _) = split.sweep(opts, &sentinel, (None, None))?;
    Ok(combine(
        &split.cut_weights,
        &split.support,
        &s.mass,
        &t.mass,
        dn,
        opts.accumulation,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assignment;
    use crate::decompose::Side;
    use crate::table::RealizationTable;
    use crate::weight::{edge_weights, edge_weights_exact};
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

    /// Serial, certificate-free, cold-solve sweeps.
    fn plain() -> CalcOptions {
        CalcOptions {
            certificate_cache: false,
            incremental: false,
            ..CalcOptions::default()
        }
    }

    /// Probability of configuration `c` over the side's links (direct
    /// product; the engine's split-product table is validated against it).
    fn config_weight(weights: &EdgeWeights<f64>, c: u64) -> f64 {
        let mut p = 1.0;
        for (i, w) in weights.iter().enumerate() {
            p *= if c >> i & 1 == 1 { w.0 } else { w.1 };
        }
        p
    }

    #[test]
    fn spectrum_masses_sum_to_one() {
        let side = side_with_three_links();
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1]), asg(&[0, 2])];
        let weights = edge_weights(&side.net);
        let (sp, _) = RealizationSpectrum::sweep(&side, &assignments, &weights, &plain()).unwrap();
        assert_eq!(sp.mass.len(), 8);
        assert!((sp.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spectrum_agrees_with_table() {
        let side = side_with_three_links();
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1]), asg(&[0, 2])];
        let weights = edge_weights(&side.net);
        let (sp, _) = RealizationSpectrum::sweep(&side, &assignments, &weights, &plain()).unwrap();

        let mut o = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let table = RealizationTable::build(&mut o, 26, 20).unwrap();
        let mut expected = vec![0.0; 8];
        for (c, &mask) in table.masks.iter().enumerate() {
            expected[mask as usize] += config_weight(&weights, c as u64);
        }
        for (a, b) in sp.mass.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_spectrum_matches_float() {
        let side = side_with_three_links();
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1]), asg(&[0, 2])];
        let wf = edge_weights(&side.net);
        let we = edge_weights_exact(&side.net);
        let (spf, _) = RealizationSpectrum::sweep(&side, &assignments, &wf, &plain()).unwrap();
        let (spe, _): (RealizationSpectrum<BigRational>, _) =
            RealizationSpectrum::sweep(&side, &assignments, &we, &plain()).unwrap();
        assert_eq!(spe.total(), BigRational::one());
        for (f, e) in spf.mass.iter().zip(&spe.mass) {
            assert!((f - e.to_f64()).abs() < 1e-12);
        }
    }

    #[test]
    fn certificate_hits_do_not_change_masses() {
        let side = side_with_three_links();
        let assignments = vec![asg(&[2, 0]), asg(&[1, 1]), asg(&[0, 2])];
        let weights = edge_weights(&side.net);
        let (plain_sp, s0) =
            RealizationSpectrum::sweep(&side, &assignments, &weights, &plain()).unwrap();
        let cached = CalcOptions {
            certificate_cache: true,
            ..plain()
        };
        let (cached_sp, s1) =
            RealizationSpectrum::sweep(&side, &assignments, &weights, &cached).unwrap();
        assert_eq!(
            plain_sp.mass, cached_sp.mass,
            "cache hits must not move any mass"
        );
        assert_eq!(s0.solver_calls_avoided(), 0);
        assert!(
            s1.solver_calls_avoided() > 0,
            "8 configs x 3 assignments must yield hits"
        );
        assert_eq!(s1.configs, s0.configs);
    }

    #[test]
    fn block_boundaries_are_exact() {
        // a side whose edge count is not a multiple of the block size still
        // sums to 1
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
        let weights = edge_weights(&side.net);
        let (sp, _) = RealizationSpectrum::sweep(&side, &assignments, &weights, &plain()).unwrap();
        assert!((sp.total() - 1.0).abs() < 1e-12);
        // mask 0b10 alone (realizes (2) but not (1)) is impossible: monotone
        assert_eq!(sp.mass[0b10], 0.0);
    }
}
