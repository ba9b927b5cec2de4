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
use crate::options::{CalcOptions, MAX_CUT_EDGES, MAX_SIDE_EDGES};
use crate::oracle::SideOracle;
use crate::sweep::{
    drive, nearest_first, CountWalk, Masses, PartialSweep, SweepConfig, SweepStats,
};
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

/// Refuses a cut of more than [`MAX_CUT_EDGES`] links.
pub(crate) fn check_cut_edges(k: usize) -> Result<(), ReliabilityError> {
    if k > MAX_CUT_EDGES {
        return Err(ReliabilityError::TooManyEdges {
            count: k,
            max: MAX_CUT_EDGES,
        });
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

/// The link of each index bit of `side`'s counting walk: nearest the demand
/// terminal and the attach points first ([`nearest_first`]). A side of at
/// most [`LEAF_LINKS`](crate::sweep::LEAF_LINKS) links keeps index =
/// configuration: it is one leaf block, swept as before the order existed,
/// so its checkpoints keep their bytes.
pub(crate) fn side_order(side: &Side) -> Vec<usize> {
    let starts = std::iter::once(side.terminal).chain(side.attach.iter().copied());
    nearest_first(&side.net, starts)
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
    let walk = CountWalk::new(weights, side_order(side));
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
    /// along `set`, with link weights `weigh`. Refuses a cut of more links
    /// than its support table covers, and more assignments than the masks
    /// hold.
    pub(crate) fn new(
        net: &Network,
        demand: &FlowDemand,
        set: &BottleneckSet,
        weigh: fn(&Network) -> EdgeWeights<W>,
        opts: &CalcOptions,
    ) -> Result<Self, ReliabilityError> {
        check_cut_edges(set.edges.len())?;
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
    use crate::assign::{Assignment, AssignmentModel};
    use crate::decompose::Side;
    use crate::table::RealizationTable;
    use crate::weight::{edge_weights, edge_weights_exact};
    use exactmath::BigRational;
    use maxflow::SolverKind;
    use netgraph::{EdgeMask, GraphKind, NetworkBuilder};

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

    /// A random split whose two sides have 7–14 links each: two connected
    /// random components of 4–6 nodes joined by 2–3 cut links, capacities
    /// 1–3, failure probabilities in sixteenths, demand 2.
    fn random_split(seed: u64, kind: GraphKind, model: AssignmentModel) -> Split<BigRational> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new(kind);
        let nodes = [rng.gen_range(4..=6), rng.gen_range(4..=6)];
        let s_nodes = b.add_nodes(nodes[0]);
        let t_nodes = b.add_nodes(nodes[1]);
        let link = |b: &mut NetworkBuilder, u, v, rng: &mut rand::rngs::StdRng| {
            let p = f64::from(rng.gen_range(1..=6u8)) / 16.0;
            b.add_edge(u, v, rng.gen_range(1..=3), p).unwrap()
        };
        for (part, inward) in [(&s_nodes, false), (&t_nodes, true)] {
            let links = rng.gen_range(7..=14);
            for i in 0..links {
                // a path first, so each side is connected
                let (u, v) = if i + 1 < part.len() {
                    (part[i], part[i + 1])
                } else {
                    let u = rng.gen_range(0..part.len());
                    let v = (u + rng.gen_range(1..part.len())) % part.len();
                    (part[u], part[v])
                };
                // the source side points away from s, the sink side toward t
                let (u, v) = if inward { (v, u) } else { (u, v) };
                link(&mut b, u, v, &mut rng);
            }
        }
        let k = rng.gen_range(2..=3);
        let cut: Vec<_> = (0..k)
            .map(|_| {
                let u = s_nodes[rng.gen_range(0..s_nodes.len())];
                let v = t_nodes[rng.gen_range(0..t_nodes.len())];
                link(&mut b, u, v, &mut rng)
            })
            .collect();
        let net = b.build();
        let demand = FlowDemand::new(s_nodes[0], t_nodes[0], 2);
        let set =
            crate::bottleneck::validate_bottleneck_set(&net, demand.source, demand.sink, &cut)
                .unwrap();
        let opts = CalcOptions {
            assignment_model: model,
            ..CalcOptions::default()
        };
        Split::new(&net, &demand, &set, edge_weights_exact, &opts).unwrap()
    }

    /// Every random split of the subcube tests, with the options it was
    /// built under.
    fn random_splits() -> Vec<(Split<BigRational>, CalcOptions)> {
        let mut out = Vec::new();
        for seed in 0..4 {
            for kind in [GraphKind::Directed, GraphKind::Undirected] {
                for model in [AssignmentModel::ForwardOnly, AssignmentModel::Net] {
                    let split = random_split(seed, kind, model);
                    let opts = CalcOptions {
                        assignment_model: model,
                        parallel: false,
                        ..CalcOptions::default()
                    };
                    out.push((split, opts));
                }
            }
        }
        out
    }

    /// The spectrum summed from per-configuration verdicts of every lane,
    /// no sweep code involved.
    fn reference_masses(side: &Side, assignments: &[Assignment]) -> Vec<BigRational> {
        let weights = edge_weights_exact(&side.net);
        let m = weights.len();
        let mut o = SideOracle::new(side, assignments, SolverKind::Dinic).unwrap();
        let mut mass = vec![BigRational::zero(); 1 << assignments.len()];
        for c in 0..1u64 << m {
            let mut realized = 0;
            for j in 0..assignments.len() {
                o.set_assignment(j);
                realized |= usize::from(o.admits(EdgeMask::from_bits(c, m))) << j;
            }
            let mut w = BigRational::one();
            for (i, p) in weights.iter().enumerate() {
                w = w.mul(if c >> i & 1 == 1 { &p.0 } else { &p.1 });
            }
            mass[realized] = mass[realized].add(&w);
        }
        mass
    }

    fn sides<W>(split: &Split<W>) -> [&Side; 2] {
        [&split.dec.side_s, &split.dec.side_t]
    }

    #[test]
    fn subcube_masses_match_per_configuration_verdicts() {
        let mut closed = 0;
        for (split, opts) in random_splits() {
            for side in sides(&split) {
                let m = side.net.edge_count();
                assert!((7..=14).contains(&m), "{m} links");
                let reference = reference_masses(side, &split.assignments);
                let exact = edge_weights_exact(&side.net);
                let (sp, _) =
                    RealizationSpectrum::sweep(side, &split.assignments, &exact, &opts).unwrap();
                assert_eq!(sp.mass, reference, "exact masses, {m} links");
                let float = edge_weights(&side.net);
                let unlimited = BudgetSentinel::unlimited();
                let (fl, stats) =
                    sweep_side(side, &split.assignments, &float, &opts, &unlimited, None).unwrap();
                for (f, e) in fl.mass.iter().zip(&reference) {
                    assert!((f - e.to_f64()).abs() < 1e-12, "{f} vs {}", e.to_f64());
                }
                // fewer checks than configurations times live lanes: some
                // block closed
                closed += usize::from(stats.configs < (fl.live.len() as u64) << m);
            }
        }
        assert!(closed > 0, "no side closed a block");
    }

    /// Round-trips a side state through the checkpoint text.
    fn through_text(ck: SideCheckpoint) -> SideCheckpoint {
        use crate::checkpoint::{Checkpoint, CheckpointKind};
        let text = Checkpoint {
            fingerprint: 1,
            reduce_shape: None,
            radices: None,
            kind: CheckpointKind::Bottleneck {
                cut: vec![],
                side_s: ck.clone(),
                side_t: ck,
            },
        }
        .to_text();
        assert!(
            text.contains("\norder bfs\n"),
            "sides over six links carry the marker"
        );
        match Checkpoint::from_text(&text).unwrap().kind {
            CheckpointKind::Bottleneck { side_s, .. } => side_s,
            _ => unreachable!(),
        }
    }

    #[test]
    fn subcube_resume_is_bit_identical() {
        use crate::budget::Budget;
        for (split, opts) in random_splits().into_iter().step_by(3) {
            for side in sides(&split) {
                let weights = edge_weights(&side.net);
                let sweep = |sentinel: &BudgetSentinel, resume| {
                    sweep_side(side, &split.assignments, &weights, &opts, sentinel, resume).unwrap()
                };
                let (full, stats) = sweep(&BudgetSentinel::unlimited(), None);
                let bits = |mass: &[f64]| mass.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for slice in [1, 37, 100, 1000] {
                    let budget = Budget {
                        max_configs: Some(slice),
                        ..Default::default()
                    };
                    let mut state = None;
                    let mut rounds = 0;
                    let done = loop {
                        let (ck, _) = sweep(&budget.start(), state.take());
                        if ck.cursor.remaining.is_empty() {
                            break ck;
                        }
                        state = Some(through_text(ck));
                        rounds += 1;
                    };
                    assert!(
                        rounds > 0 || stats.configs <= slice,
                        "slice {slice} must interrupt"
                    );
                    assert_eq!(bits(&done.mass), bits(&full.mass), "slice {slice}");
                }
            }
        }
    }

    #[test]
    fn subcube_budget_debits_the_checks_made() {
        use crate::budget::Budget;
        // the terminal is the one attach point: every configuration of the
        // eight links realizes both assignments, so the root block closes
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        for i in 0..8 {
            b.add_edge(n[i % 4], n[(i + 1) % 4], 1, 0.1).unwrap();
        }
        let side = Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: n[0],
            attach: vec![n[0]],
            is_source_side: true,
        };
        let assignments = vec![asg(&[1]), asg(&[2])];
        let exact = edge_weights_exact(&side.net);
        let budget = Budget {
            max_configs: Some(1 << 20),
            ..Default::default()
        };
        let sentinel = budget.start();
        let (ck, stats) = sweep_side(
            &side,
            &assignments,
            &exact,
            &CalcOptions::default(),
            &sentinel,
            None,
        )
        .unwrap();
        assert!(ck.cursor.remaining.is_empty());
        assert_eq!(stats.configs, 4, "two lanes, each tested at both extremes");
        assert_eq!(sentinel.used(), stats.configs);
        assert_eq!(ck.mass[0b11], BigRational::one());
        // a side that splits down to leaves debits its checks too
        for (split, opts) in random_splits().into_iter().take(2) {
            for side in sides(&split) {
                let sentinel = budget.start();
                let weights = edge_weights(&side.net);
                let (ck, stats) =
                    sweep_side(side, &split.assignments, &weights, &opts, &sentinel, None).unwrap();
                assert!(ck.cursor.remaining.is_empty());
                assert_eq!(sentinel.used(), stats.configs);
            }
        }
    }

    /// Fanned out over the threads `RAYON_NUM_THREADS` allows, a side's
    /// pieces are aligned blocks and its masses agree with the serial run.
    #[test]
    fn subcube_fan_out_agrees_with_the_serial_sweep() {
        for (split, opts) in random_splits() {
            let fanned = CalcOptions {
                parallel: true,
                parallel_threshold: 0,
                ..opts.clone()
            };
            for side in sides(&split) {
                let weights = edge_weights(&side.net);
                let run = |opts: &CalcOptions| {
                    RealizationSpectrum::sweep(side, &split.assignments, &weights, opts)
                        .unwrap()
                        .0
                };
                let (a, b) = (run(&opts), run(&fanned));
                for (x, y) in a.mass.iter().zip(&b.mass) {
                    assert!((x - y).abs() < 1e-12, "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn small_sides_keep_their_link_order_and_large_ones_go_nearest_first() {
        let side = side_with_three_links();
        assert_eq!(side_order(&side), vec![0, 1, 2]);
        // a path s = 0 - 1 - 2 - ... - 8, attach at 0: link i is i hops out
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(9);
        for i in (0..8).rev() {
            b.add_edge(n[i], n[i + 1], 1, 0.1).unwrap();
        }
        let path = Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: n[0],
            attach: vec![n[0]],
            is_source_side: true,
        };
        // link 7 joins nodes 0 and 1: nearest, so the highest index bit
        assert_eq!(side_order(&path), (0..8).collect::<Vec<_>>());
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
