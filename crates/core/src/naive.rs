//! The naive baseline: enumerate all `2^|E|` failure configurations (Fig. 1).
//!
//! For each configuration of available links `E' ⊆ E`, run a max-flow on the
//! induced subgraph; if it admits the demand, add
//! `Π_{e ∈ E'} (1 − p(e)) · Π_{e ∉ E'} p(e)` to the reliability.
//!
//! The enumeration itself is delegated to the shared sweep engine
//! ([`crate::sweep`]): Gray-code order with O(1) incremental masks and
//! split-product weights, optional rayon parallelism, and optional
//! monotonicity-certificate caching — all exact. Links with `p(e) = 0` never
//! fail, so they are pinned alive instead of enumerated
//! (`factor_perfect_links`).

use exactmath::BigRational;
use netgraph::{EdgeMask, GraphError, Network, StateExpansion};

use crate::budget::BudgetSentinel;
use crate::checkpoint::{check_certs, NaiveCheckpoint, SweepCursor, SLACK};
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::options::{CalcOptions, MAX_ENUM_EDGES};
use crate::oracle::DemandOracle;
use crate::preprocess::relevance_reduce;
use crate::sweep::{
    drive, CompensatedAcc, GrayWalk, MixedGeometry, MixedWalk, PartialSweep, PlainAcc, Sums,
    SweepAccumulator, SweepConfig, SweepStats, Walk,
};
use crate::weight::{digit_weights, digit_weights_exact, edge_weights_exact, EdgeWeights, Weight};

/// Splits edge indices into (fallible, pinned-alive) per the options.
fn enumeration_split(net: &Network, opts: &CalcOptions) -> (Vec<usize>, u64) {
    let mut fallible = Vec::new();
    let mut pinned = 0u64;
    for (i, e) in net.edges().iter().enumerate() {
        if opts.factor_perfect_links && e.fail_prob == 0.0 {
            pinned |= 1 << i;
        } else {
            fallible.push(i);
        }
    }
    (fallible, pinned)
}

/// Validates the demand and the enumeration bounds; returns the
/// (fallible, pinned) split so callers enumerate exactly what was checked.
fn check_bounds(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<(Vec<usize>, u64), ReliabilityError> {
    demand.validate(net)?;
    if net.edge_count() > EdgeMask::MAX_EDGES {
        return Err(ReliabilityError::EdgeMaskOverflow {
            count: net.edge_count(),
            max: EdgeMask::MAX_EDGES,
        });
    }
    let (fallible, pinned) = enumeration_split(net, opts);
    if fallible.len() > MAX_ENUM_EDGES {
        return Err(ReliabilityError::TooManyEdges {
            count: fallible.len(),
            max: MAX_ENUM_EDGES,
        });
    }
    Ok((fallible, pinned))
}

/// Naive reliability in `f64` with compensated summation.
///
/// Links on no s→t path are deleted first (exact for every demand — see
/// [`crate::preprocess`]), so only the relevant links enter the `2^|E|`
/// exponent and the [`MAX_ENUM_EDGES`] bound.
pub fn reliability_naive(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<f64, ReliabilityError> {
    reliability_naive_with_stats(net, demand, opts).map(|(r, _)| r)
}

/// [`reliability_naive`] plus the sweep-engine counters (configurations
/// tested, solver calls, certificate hits): the budget-aware sweep run under
/// an unlimited sentinel.
pub fn reliability_naive_with_stats(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<(f64, SweepStats), ReliabilityError> {
    let sentinel = BudgetSentinel::unlimited();
    match reliability_naive_anytime_on(net, demand, opts, &sentinel, None)? {
        NaiveOutcome::Complete { reliability, stats } => Ok((reliability, stats)),
        NaiveOutcome::Partial { .. } => unreachable!("unlimited sweeps always finish"),
    }
}

/// Outcome of a budget-aware naive enumeration.
#[derive(Clone, Debug)]
pub enum NaiveOutcome {
    /// The sweep examined every configuration.
    Complete {
        /// The exact reliability (up to compensated `f64` rounding).
        reliability: f64,
        /// Sweep-engine counters.
        stats: SweepStats,
    },
    /// The budget stopped the sweep; `[r_low, r_high]` is a rigorous
    /// interval around the exact reliability.
    Partial {
        /// Certified lower bound (mass of configurations proven feasible).
        r_low: f64,
        /// Certified upper bound (`r_low` plus all unexplored mass).
        r_high: f64,
        /// Probability mass of the configurations examined so far.
        explored: f64,
        /// Resume state; feed back in (same instance, same
        /// `factor_perfect_links`) to continue the sweep.
        checkpoint: NaiveCheckpoint,
        /// Sweep-engine counters for this slice of work.
        stats: SweepStats,
    },
}

/// Budget-aware naive reliability: runs under `opts.budget` and returns
/// either the exact value or a rigorous `[r_low, r_high]` interval plus a
/// resume checkpoint.
///
/// A serial interrupted run resumed from its checkpoint reproduces the
/// uninterrupted [`reliability_naive`] value bit for bit; a parallel one
/// agrees to accumulation rounding.
pub fn reliability_naive_anytime(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
    resume: Option<&NaiveCheckpoint>,
) -> Result<NaiveOutcome, ReliabilityError> {
    let sentinel = opts.budget.start();
    reliability_naive_anytime_on(net, demand, opts, &sentinel, resume)
}

/// As [`reliability_naive_anytime`], but drawing from an externally owned
/// [`BudgetSentinel`] instead of starting a fresh one from `opts.budget`.
///
/// This is what lets the plan interpreter share a single budget across every
/// leaf sweep of a decomposition tree: each leaf consumes grants from the same
/// sentinel, so time/config limits apply to the whole recursive calculation
/// rather than resetting per leaf.
pub fn reliability_naive_anytime_on(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
    sentinel: &BudgetSentinel,
    resume: Option<&NaiveCheckpoint>,
) -> Result<NaiveOutcome, ReliabilityError> {
    demand.validate(net)?;
    let reduced = relevance_reduce(net, demand);
    if reduced.removed > 0 {
        // The reduction is deterministic, so checkpoint cursors always refer
        // to the same reduced enumeration on both the interrupted and the
        // resuming run.
        return reliability_naive_anytime_on(&reduced.net, reduced.demand, opts, sentinel, resume);
    }
    if net.has_multistate() {
        return reliability_naive_mixed_on(net, demand, opts, sentinel, resume);
    }
    let (fallible, pinned) = check_bounds(net, demand, opts)?;
    let mut oracle = DemandOracle::new(net, demand.source, demand.sink, demand.demand, opts.solver);
    let weights: Vec<(f64, f64)> = fallible
        .iter()
        .map(|&i| {
            let p = net.edges()[i].fail_prob;
            (1.0 - p, p)
        })
        .collect();
    let walk = GrayWalk::new(&fallible, pinned, net.edge_count(), &weights);
    sweep_settled(&mut oracle, &walk, demand, opts, sentinel, resume)
}

/// The resume-and-settle frame shared by the binary and mixed-radix sweeps
/// and by factoring's walk ([`crate::factoring`]): answers the trivial
/// demands without sweeping, checks a checkpoint against this instance's
/// walk, sweeps from it, and turns the sums into an outcome with certified
/// bounds.
pub(crate) fn sweep_settled<K: Walk<f64>>(
    oracle: &mut DemandOracle,
    walk: &K,
    demand: FlowDemand,
    opts: &CalcOptions,
    sentinel: &BudgetSentinel,
    resume: Option<&NaiveCheckpoint>,
) -> Result<NaiveOutcome, ReliabilityError> {
    if demand.demand == 0 {
        return Ok(NaiveOutcome::Complete {
            reliability: 1.0,
            stats: SweepStats::default(),
        });
    }
    if oracle.max_flow_all_alive() < demand.demand {
        return Ok(NaiveOutcome::Complete {
            reliability: 0.0,
            stats: SweepStats::default(),
        });
    }
    let total = walk.total();
    let state = match resume {
        Some(ck) => resume_state(ck, total, oracle.edge_capacities())?,
        None => PartialSweep::fresh(Sums::empty(), total),
    };
    let cfg = SweepConfig::from_opts(opts);
    let (partial, stats) = drive(&*oracle, walk, &[0], &cfg, sentinel, state);
    let PartialSweep {
        visitor: sums,
        remaining,
        certs,
    } = partial;
    if remaining.is_empty() {
        return Ok(NaiveOutcome::Complete {
            reliability: sums.feasible.finish(),
            stats,
        });
    }
    let feasible = sums.feasible.state();
    let explored_state = sums.explored.state();
    let explored = (explored_state.0 + explored_state.1).clamp(0.0, 1.0);
    let r_low = (feasible.0 + feasible.1).clamp(0.0, 1.0);
    let r_high = (r_low + (1.0 - explored).max(0.0)).min(1.0);
    Ok(NaiveOutcome::Partial {
        r_low,
        r_high,
        explored,
        checkpoint: NaiveCheckpoint {
            cursor: SweepCursor { total, remaining },
            feasible,
            explored: explored_state,
            certs: certs.into_iter().next().unwrap_or_default(),
        },
        stats,
    })
}

/// Checks a naive checkpoint against the `total` configurations of this
/// instance and against what any run could have summed, and unpacks it into
/// the driver's resume state. The sums are probabilities of configuration
/// sets, so each lies in `[0, 1]` and the feasible set's lies below the
/// explored set's; a checkpoint outside that could resume to a "certified"
/// answer above 1. Its certificates, over links of capacities `caps`, must
/// not contradict each other.
fn resume_state(
    ck: &NaiveCheckpoint,
    total: u64,
    caps: &[u64],
) -> Result<PartialSweep<Sums<CompensatedAcc>>, ReliabilityError> {
    let mismatch = |reason: String| ReliabilityError::CheckpointMismatch { reason };
    if ck.cursor.total != total {
        return Err(mismatch(format!(
            "checkpoint enumerates {} configurations, this instance {}",
            ck.cursor.total, total
        )));
    }
    let probability = |name: &str, (s, c): (f64, f64)| {
        let sum = s + c;
        if s.is_finite() && c.is_finite() && (-SLACK..=1.0 + SLACK).contains(&sum) {
            Ok(sum)
        } else {
            Err(mismatch(format!(
                "checkpoint {name} sum ({s:e}, {c:e}) is not a probability"
            )))
        }
    };
    let feasible = probability("feasible", ck.feasible)?;
    let explored = probability("explored", ck.explored)?;
    if feasible > explored + SLACK {
        return Err(mismatch(format!(
            "checkpoint feasible sum {feasible} exceeds its explored sum {explored}"
        )));
    }
    check_certs(&ck.certs, caps, "naive")?;
    Ok(PartialSweep {
        visitor: Sums {
            feasible: CompensatedAcc::from_state(ck.feasible),
            explored: CompensatedAcc::from_state(ck.explored),
        },
        remaining: ck.cursor.remaining.clone(),
        certs: vec![ck.certs.clone()],
    })
}

/// Tranche-expands a multi-state network and builds the mixed-radix sweep
/// geometry plus a demand oracle over the expanded binary network.
fn mixed_setup(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<(StateExpansion, MixedGeometry, DemandOracle), ReliabilityError> {
    let x = StateExpansion::build(net).map_err(|e| match e {
        GraphError::ExpansionTooLarge { arcs, max } => {
            ReliabilityError::EdgeMaskOverflow { count: arcs, max }
        }
        other => other.into(),
    })?;
    if x.digits.len() > MAX_ENUM_EDGES {
        return Err(ReliabilityError::TooManyEdges {
            count: x.digits.len(),
            max: MAX_ENUM_EDGES,
        });
    }
    let geom = MixedGeometry::from_expansion(&x)
        .unwrap_or_else(|| unreachable!("≤64 expanded arcs bound Π radices far below 2^63"));
    let oracle = DemandOracle::new(
        &x.net,
        demand.source,
        demand.sink,
        demand.demand,
        opts.solver,
    );
    Ok((x, geom, oracle))
}

/// The multi-state body of [`reliability_naive_anytime_on`]: enumerates the
/// mixed-radix state space of the tranche expansion with the reflected-Gray
/// sweep engine. Same anytime contract as the binary path — checkpoint
/// cursors index mixed-radix configuration ordinals, and `cursor.total` is
/// `Π radices` instead of `2^|fallible|`.
fn reliability_naive_mixed_on(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
    sentinel: &BudgetSentinel,
    resume: Option<&NaiveCheckpoint>,
) -> Result<NaiveOutcome, ReliabilityError> {
    let (x, geom, mut oracle) = mixed_setup(net, demand, opts)?;
    let weights = digit_weights(&x);
    let walk = MixedWalk::new(&geom, &weights);
    sweep_settled(&mut oracle, &walk, demand, opts, sentinel, resume)
}

/// The exact sum over every configuration of `walk`: serial, so the
/// deterministic exact paths stay deterministic, with certificate caching
/// still honored (a cache hit is the verdict the solver would return, and
/// skipping a solve never perturbs exact arithmetic).
pub(crate) fn exact_sum<W: Weight, K: Walk<W>>(
    oracle: &DemandOracle,
    walk: &K,
    opts: &CalcOptions,
) -> W {
    let cfg = SweepConfig {
        parallel: false,
        ..SweepConfig::from_opts(opts)
    };
    let fresh = PartialSweep::fresh(Sums::<PlainAcc<W>>::empty(), walk.total());
    let sentinel = BudgetSentinel::unlimited();
    let (done, _) = drive(oracle, walk, &[0], &cfg, &sentinel, fresh);
    debug_assert!(done.is_complete(), "unlimited sweeps always finish");
    done.visitor.feasible.finish()
}

/// Naive reliability with exact rational arithmetic (the validation oracle
/// for every other algorithm). Probabilities are taken from the network's
/// `f64` values via exact dyadic conversion.
pub fn reliability_naive_exact(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<BigRational, ReliabilityError> {
    if net.has_multistate() {
        demand.validate(net)?;
        let reduced = relevance_reduce(net, demand);
        if reduced.removed > 0 {
            return reliability_naive_exact(&reduced.net, reduced.demand, opts);
        }
        let (x, geom, mut oracle) = mixed_setup(net, demand, opts)?;
        if demand.demand == 0 {
            return Ok(BigRational::one());
        }
        if oracle.max_flow_all_alive() < demand.demand {
            return Ok(BigRational::zero());
        }
        let weights = digit_weights_exact(&x);
        return Ok(exact_sum(&oracle, &MixedWalk::new(&geom, &weights), opts));
    }
    reliability_naive_weighted(net, demand, &edge_weights_exact(net), opts)
}

/// Naive reliability over arbitrary weights (shared generic implementation).
///
/// Runs the sweep engine serially regardless of `opts.parallel` (see
/// `exact_sum`).
pub fn reliability_naive_weighted<W: Weight>(
    net: &Network,
    demand: FlowDemand,
    weights: &EdgeWeights<W>,
    opts: &CalcOptions,
) -> Result<W, ReliabilityError> {
    demand.validate(net)?;
    if weights.len() != net.edge_count() {
        return Err(ReliabilityError::ArityMismatch {
            what: "edge weights",
            got: weights.len(),
            expected: net.edge_count(),
        });
    }
    let reduced = relevance_reduce(net, demand);
    if reduced.removed > 0 {
        let w: EdgeWeights<W> = reduced
            .edge_origin
            .iter()
            .map(|&i| weights[i].clone())
            .collect();
        return reliability_naive_weighted(&reduced.net, reduced.demand, &w, opts);
    }
    if net.has_multistate() {
        // per-edge (alive, failed) pairs cannot express a k-state spectrum
        return Err(ReliabilityError::MultiState {
            operation: "custom per-edge weighting",
        });
    }
    // Perfect-link factoring is keyed on the f64 probabilities; for generic
    // weights enumerate everything to stay self-evidently exact.
    let opts_all = CalcOptions {
        factor_perfect_links: false,
        ..opts.clone()
    };
    let (fallible, pinned) = check_bounds(net, demand, &opts_all)?;
    if demand.demand == 0 {
        return Ok(W::one());
    }
    let mut oracle = DemandOracle::new(net, demand.source, demand.sink, demand.demand, opts.solver);
    if oracle.max_flow_all_alive() < demand.demand {
        return Ok(W::zero());
    }
    let compact: Vec<(W, W)> = fallible
        .iter()
        .map(|&i| (weights[i].0.clone(), weights[i].1.clone()))
        .collect();
    let walk = GrayWalk::new(&fallible, pinned, net.edge_count(), &compact);
    Ok(exact_sum(&oracle, &walk, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{GraphKind, NetworkBuilder, NodeId};

    /// Two parallel links, p = 0.1 each, demand 1:
    /// R = 1 - 0.1 * 0.1 = 0.99.
    fn two_parallel() -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.build()
    }

    #[test]
    fn parallel_links_demand_one() {
        let net = two_parallel();
        let r = reliability_naive(
            &net,
            FlowDemand::new(NodeId(0), NodeId(1), 1),
            &CalcOptions::default(),
        )
        .unwrap();
        assert!((r - 0.99).abs() < 1e-12);
    }

    #[test]
    fn parallel_links_demand_two() {
        let net = two_parallel();
        let r = reliability_naive(
            &net,
            FlowDemand::new(NodeId(0), NodeId(1), 2),
            &CalcOptions::default(),
        )
        .unwrap();
        assert!((r - 0.81).abs() < 1e-12, "both links must survive: 0.9^2");
    }

    #[test]
    fn series_links_multiply() {
        // s -e0- a -e1- t, p = 0.2, 0.3 => R = 0.8 * 0.7
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.2).unwrap();
        b.add_edge(n[1], n[2], 1, 0.3).unwrap();
        let net = b.build();
        let r = reliability_naive(
            &net,
            FlowDemand::new(NodeId(0), NodeId(2), 1),
            &CalcOptions::default(),
        )
        .unwrap();
        assert!((r - 0.8 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn insufficient_capacity_is_zero() {
        let net = two_parallel();
        let r = reliability_naive(
            &net,
            FlowDemand::new(NodeId(0), NodeId(1), 3),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn zero_demand_is_one() {
        let net = two_parallel();
        let r = reliability_naive(
            &net,
            FlowDemand::new(NodeId(0), NodeId(1), 0),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(r, 1.0);
    }

    #[test]
    fn perfect_link_factoring_matches_full_enumeration() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 2, 0.0).unwrap(); // perfect
        b.add_edge(n[1], n[2], 1, 0.25).unwrap();
        b.add_edge(n[1], n[2], 1, 0.5).unwrap();
        let net = b.build();
        let d = FlowDemand::new(NodeId(0), NodeId(2), 1);
        let with = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let without = reliability_naive(
            &net,
            d,
            &CalcOptions {
                factor_perfect_links: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((with - without).abs() < 1e-12);
        assert!((with - (1.0 - 0.25 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn exact_matches_float() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 2, 0.125).unwrap();
        b.add_edge(n[0], n[2], 1, 0.25).unwrap();
        b.add_edge(n[1], n[3], 1, 0.5).unwrap();
        b.add_edge(n[2], n[3], 2, 0.0625).unwrap();
        b.add_edge(n[1], n[2], 1, 0.375).unwrap();
        let net = b.build();
        let d = FlowDemand::new(NodeId(0), NodeId(3), 2);
        let float = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let exact = reliability_naive_exact(&net, d, &CalcOptions::default()).unwrap();
        assert!((float - exact.to_f64()).abs() < 1e-12);
    }

    #[test]
    fn too_many_edges_is_rejected() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        for _ in 0..31 {
            b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        }
        let net = b.build();
        let d = FlowDemand::new(NodeId(0), NodeId(1), 1);
        let err = reliability_naive(&net, d, &CalcOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ReliabilityError::TooManyEdges { count: 31, max: 30 }
        ));
    }

    #[test]
    fn parallel_matches_serial() {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(5);
        let probs = [
            0.1, 0.2, 0.3, 0.15, 0.25, 0.05, 0.35, 0.4, 0.12, 0.22, 0.18, 0.28,
        ];
        let ends = [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 4),
            (0, 3),
            (1, 4),
            (0, 4),
            (1, 2),
            (3, 4),
        ];
        for (&p, &(u, v)) in probs.iter().zip(&ends) {
            b.add_edge(n[u], n[v], 1, p).unwrap();
        }
        let net = b.build();
        let d = FlowDemand::new(NodeId(0), NodeId(4), 2);
        let serial = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let par = reliability_naive(&net, d, &CalcOptions::parallel()).unwrap();
        assert!((serial - par).abs() < 1e-12);
    }

    /// s→t: 3-state link {0: 0.2, 1: 0.3, 2: 0.5} ∥ binary (cap 1, p 0.4).
    fn multistate_net() -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_spectrum_edge(n[0], n[1], &[(0, 0.2), (1, 0.3), (2, 0.5)])
            .unwrap();
        b.add_edge(n[0], n[1], 1, 0.4).unwrap();
        b.build()
    }

    #[test]
    fn multistate_naive_matches_hand_computation() {
        let net = multistate_net();
        let d = FlowDemand::new(NodeId(0), NodeId(1), 2);
        let r = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        // P(c1 + c2 ≥ 2) = P(c1=2) + P(c1=1)·P(c2 up)
        let expected = 0.5 + 0.3 * 0.6;
        assert!((r - expected).abs() < 1e-12, "{r} vs {expected}");
        let exact = reliability_naive_exact(&net, d, &CalcOptions::default()).unwrap();
        assert!((r - exact.to_f64()).abs() < 1e-12);
    }

    #[test]
    fn two_state_spectrum_is_the_legacy_binary_path_bit_for_bit() {
        let mut b1 = NetworkBuilder::new(GraphKind::Directed);
        let n = b1.add_nodes(2);
        b1.add_spectrum_edge(n[0], n[1], &[(0, 0.25), (2, 0.75)])
            .unwrap();
        b1.add_edge(n[0], n[1], 1, 0.5).unwrap();
        let spec = b1.build();
        assert!(
            !spec.has_multistate(),
            "2-state {{0, c}} collapses to binary"
        );
        let mut b2 = NetworkBuilder::new(GraphKind::Directed);
        let n = b2.add_nodes(2);
        b2.add_edge(n[0], n[1], 2, 0.25).unwrap();
        b2.add_edge(n[0], n[1], 1, 0.5).unwrap();
        let plain = b2.build();
        let d = FlowDemand::new(NodeId(0), NodeId(1), 2);
        let r_spec = reliability_naive(&spec, d, &CalcOptions::default()).unwrap();
        let r_plain = reliability_naive(&plain, d, &CalcOptions::default()).unwrap();
        assert_eq!(r_spec.to_bits(), r_plain.to_bits());
    }

    #[test]
    fn multistate_anytime_resumes_bit_identical() {
        use crate::budget::Budget;
        let net = multistate_net();
        let d = FlowDemand::new(NodeId(0), NodeId(1), 1);
        let full = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let mut ck: Option<NaiveCheckpoint> = None;
        let mut rounds = 0;
        loop {
            let opts = CalcOptions {
                budget: Budget {
                    max_configs: Some(2),
                    ..Default::default()
                },
                ..Default::default()
            };
            match reliability_naive_anytime(&net, d, &opts, ck.as_ref()).unwrap() {
                NaiveOutcome::Complete { reliability, .. } => {
                    assert_eq!(reliability.to_bits(), full.to_bits());
                    break;
                }
                NaiveOutcome::Partial {
                    r_low,
                    r_high,
                    checkpoint,
                    ..
                } => {
                    assert!(r_low <= full + 1e-12 && full <= r_high + 1e-12);
                    assert_eq!(checkpoint.cursor.total, 6, "Π radices = 3 · 2");
                    ck = Some(checkpoint);
                }
            }
            rounds += 1;
            assert!(rounds < 20, "must converge");
        }
        assert!(rounds >= 2);
    }

    #[test]
    fn multistate_rejects_custom_weights() {
        let net = multistate_net();
        let d = FlowDemand::new(NodeId(0), NodeId(1), 1);
        let w: EdgeWeights<f64> = vec![(0.8, 0.2), (0.6, 0.4)];
        let err = reliability_naive_weighted(&net, d, &w, &CalcOptions::default()).unwrap_err();
        assert!(matches!(err, ReliabilityError::MultiState { .. }));
    }

    #[test]
    fn always_down_link_behaves_as_deleted_end_to_end() {
        let mut b1 = NetworkBuilder::new(GraphKind::Directed);
        let n = b1.add_nodes(3);
        b1.add_edge(n[0], n[1], 1, 0.2).unwrap();
        b1.add_edge(n[1], n[2], 1, 0.3).unwrap();
        b1.add_edge(n[0], n[2], 4, 1.0).unwrap(); // always down
        let with = b1.build();
        let mut b2 = NetworkBuilder::new(GraphKind::Directed);
        let n = b2.add_nodes(3);
        b2.add_edge(n[0], n[1], 1, 0.2).unwrap();
        b2.add_edge(n[1], n[2], 1, 0.3).unwrap();
        let without = b2.build();
        let d = FlowDemand::new(NodeId(0), NodeId(2), 1);
        let r_with = reliability_naive(&with, d, &CalcOptions::default()).unwrap();
        let r_without = reliability_naive(&without, d, &CalcOptions::default()).unwrap();
        assert_eq!(r_with.to_bits(), r_without.to_bits());
        assert!((r_with - 0.8 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn certificate_cache_preserves_the_value_and_reports_hits() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[2], 1, 0.2).unwrap();
        b.add_edge(n[1], n[3], 1, 0.3).unwrap();
        b.add_edge(n[2], n[3], 1, 0.4).unwrap();
        b.add_edge(n[1], n[2], 1, 0.25).unwrap();
        let net = b.build();
        let d = FlowDemand::new(NodeId(0), NodeId(3), 1);
        let plain = CalcOptions {
            certificate_cache: false,
            ..Default::default()
        };
        let cached = CalcOptions::default();
        let (r0, s0) = reliability_naive_with_stats(&net, d, &plain).unwrap();
        let (r1, s1) = reliability_naive_with_stats(&net, d, &cached).unwrap();
        assert_eq!(r0, r1, "serial cert-cached sweep must be bit-identical");
        assert_eq!(s0.solver_calls_avoided(), 0);
        assert!(s1.solver_calls_avoided() > 0);
        assert_eq!(s1.configs, s0.configs);
        assert_eq!(s1.solver_calls + s1.solver_calls_avoided(), s1.configs);
    }
}
