//! The factoring (conditioning) algorithm with flow-based pruning — a classic
//! exact comparator for network-reliability problems.
//!
//! Condition on one undecided link at a time:
//! `R = p(e) · R[e failed] + (1 − p(e)) · R[e alive]`.
//! Two bounds prune entire subtrees exactly:
//!
//! * **optimistic** — if the demand is infeasible even with every undecided
//!   link alive, the subtree contributes 0;
//! * **pessimistic** — if the demand is feasible with every undecided link
//!   failed, every configuration below succeeds and the subtree contributes
//!   its full remaining probability mass.
//!
//! Worst case remains `O(2^|E|)`, but on most instances the bounds collapse
//! large parts of the tree; the benches quantify the gap against the naive
//! sweep and the bottleneck algorithm.
//!
//! One body serves every caller: [`reliability_factoring_anytime`] runs it
//! under the options' budget, and [`reliability_factoring`] and
//! [`crate::importance::birnbaum_importance`] run it under an unlimited
//! sentinel, so a resumed budgeted run returns the same bits as an
//! unbudgeted one.

use netgraph::{EdgeMask, Network};

use crate::budget::BudgetSentinel;
use crate::checkpoint::FactoringCheckpoint;
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::options::{CalcOptions, MAX_FACTORING_EDGES};
use crate::oracle::DemandOracle;
use crate::preprocess::relevance_reduce;
use crate::weight::edge_weights;

/// Factoring reliability, `f64`: the anytime body run to completion.
pub fn reliability_factoring(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
) -> Result<f64, ReliabilityError> {
    factoring_complete(net, demand, &edge_weights(net), opts)
}

/// Runs the anytime body to completion with caller-supplied `(alive, failed)`
/// weight pairs in place of each link's `(1 − p, p)`; importance measures pin
/// a link by passing `(1, 0)` or `(0, 1)` for it.
pub(crate) fn factoring_complete(
    net: &Network,
    demand: FlowDemand,
    weights: &[(f64, f64)],
    opts: &CalcOptions,
) -> Result<f64, ReliabilityError> {
    let sentinel = BudgetSentinel::unlimited();
    match factoring_on(net, demand, weights, opts, &sentinel, None)? {
        FactoringOutcome::Complete { reliability, .. } => Ok(reliability),
        FactoringOutcome::Partial { .. } => unreachable!("unlimited budgets always finish"),
    }
}

/// Result of a budgeted factoring (conditioning) run.
#[derive(Clone, Debug)]
pub enum FactoringOutcome {
    /// The budget sufficed: every conditioning subtree was resolved.
    Complete {
        /// The exact reliability (up to compensated `f64` rounding).
        reliability: f64,
        /// Conditioning leaves resolved.
        leaves: u64,
    },
    /// The budget ran out between conditioning steps; `[r_low, r_high]` is
    /// a rigorous interval around the exact reliability.
    Partial {
        /// Certified lower bound (mass of subtrees proven feasible).
        r_low: f64,
        /// Certified upper bound (`r_low` plus all unresolved mass).
        r_high: f64,
        /// Probability mass of the conditioning frames resolved so far.
        explored: f64,
        /// Resume state; feed back in (same instance) to continue.
        checkpoint: FactoringCheckpoint,
    },
}

/// Probability mass of a conditioning frame: the product, over links already
/// conditioned (neither undecided nor outside the network), of the alive or
/// failed weight. A pure function of the frame, so a resumed run recomputes
/// the masses its interrupted run carried.
fn frame_mass(weights: &[(f64, f64)], all: u64, alive: u64, undecided: u64) -> f64 {
    let mut decided = all & !undecided;
    let mut mass = 1.0;
    while decided != 0 {
        let i = decided.trailing_zeros() as usize;
        mass *= if alive >> i & 1 == 1 {
            weights[i].0
        } else {
            weights[i].1
        };
        decided &= decided - 1;
    }
    mass
}

/// Neumaier-compensated `acc += x`.
fn neumaier_add(acc: &mut (f64, f64), x: f64) {
    let t = acc.0 + x;
    if acc.0.abs() >= x.abs() {
        acc.1 += (acc.0 - t) + x;
    } else {
        acc.1 += (x - t) + acc.0;
    }
    acc.0 = t;
}

/// Budget-aware factoring: conditions depth-first (alive branch first) and
/// polls `opts.budget` between conditioning steps (one grant unit per frame).
/// When interrupted it returns the bounds accumulated so far plus a
/// checkpoint of the unresolved subtrees.
///
/// Determinism: frame masses are pure functions of the frame, and
/// feasible-leaf masses enter one compensated accumulator in visit order —
/// so an interrupted run resumed to completion returns the same bits as an
/// uninterrupted run, budgeted or not.
pub fn reliability_factoring_anytime(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
    resume: Option<&FactoringCheckpoint>,
) -> Result<FactoringOutcome, ReliabilityError> {
    let sentinel = opts.budget.start();
    factoring_on(net, demand, &edge_weights(net), opts, &sentinel, resume)
}

/// The one factoring body: relevance-reduces the instance (carrying the
/// weight pairs along), then conditions under `sentinel`.
fn factoring_on(
    net: &Network,
    demand: FlowDemand,
    weights: &[(f64, f64)],
    opts: &CalcOptions,
    sentinel: &BudgetSentinel,
    resume: Option<&FactoringCheckpoint>,
) -> Result<FactoringOutcome, ReliabilityError> {
    demand.validate(net)?;
    debug_assert_eq!(weights.len(), net.edge_count(), "one weight pair per link");
    let reduced = relevance_reduce(net, demand);
    if reduced.removed > 0 {
        // The reduction is deterministic, so checkpoint frames always refer
        // to the same reduced link indexing on both runs.
        let w: Vec<(f64, f64)> = reduced.edge_origin.iter().map(|&i| weights[i]).collect();
        return factoring_on(&reduced.net, reduced.demand, &w, opts, sentinel, resume);
    }
    let m = net.edge_count();
    if m > EdgeMask::MAX_EDGES {
        return Err(ReliabilityError::EdgeMaskOverflow {
            count: m,
            max: EdgeMask::MAX_EDGES,
        });
    }
    // factoring prunes aggressively, so allow somewhat more than naive, but
    // still refuse hopeless instances
    if m > MAX_FACTORING_EDGES {
        return Err(ReliabilityError::TooManyEdges {
            count: m,
            max: MAX_FACTORING_EDGES,
        });
    }
    if demand.demand == 0 {
        return Ok(FactoringOutcome::Complete {
            reliability: 1.0,
            leaves: 1,
        });
    }
    let all = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
    let (mut acc, mut leaves, mut stack) = match resume {
        Some(ck) => {
            for &(alive, undecided) in &ck.pending {
                if alive & undecided != 0 || (alive | undecided) & !all != 0 {
                    return Err(ReliabilityError::CheckpointMismatch {
                        reason: "factoring frame does not fit this network's links".into(),
                    });
                }
            }
            // `pending` is stored in visit order; the stack pops from the
            // back, so reverse it.
            let st = (ck.pending.iter().rev())
                .map(|&(a, u)| (a, u, frame_mass(weights, all, a, u)))
                .collect();
            (ck.accum, ck.leaves, st)
        }
        None => ((0.0, 0.0), 0, vec![(0u64, all, 1.0)]),
    };
    let mut oracle = DemandOracle::new(net, demand.source, demand.sink, demand.demand, opts.solver);
    // Each frame carries its mass. Links are conditioned in ascending index
    // order, so the carried product multiplies the same factors in the same
    // order as `frame_mass` and is bit-identical to it.
    while let Some((alive, undecided, mass)) = stack.pop() {
        if sentinel.grant(1, 1) == 0 {
            // This frame and everything below it on the stack is pending,
            // in reverse visit order.
            stack.push((alive, undecided, mass));
            let pending_mass: f64 = stack.iter().rev().map(|f| f.2).sum();
            let r_low = (acc.0 + acc.1).clamp(0.0, 1.0);
            return Ok(FactoringOutcome::Partial {
                r_low,
                r_high: (r_low + pending_mass).clamp(r_low, 1.0),
                explored: (1.0 - pending_mass).clamp(0.0, 1.0),
                checkpoint: FactoringCheckpoint {
                    accum: acc,
                    leaves,
                    pending: stack.iter().rev().map(|&(a, u, _)| (a, u)).collect(),
                },
            });
        }
        // optimistic: all undecided alive
        if !oracle.admits(EdgeMask::from_bits(alive | undecided, m)) {
            leaves += 1;
            continue;
        }
        // pessimistic: all undecided failed
        if oracle.admits(EdgeMask::from_bits(alive, m)) {
            leaves += 1;
            neumaier_add(&mut acc, mass);
            continue;
        }
        // both bounds open: condition on the lowest undecided link; push the
        // failed branch first so the alive branch pops first.
        let e = undecided.trailing_zeros();
        let rest = undecided & !(1u64 << e);
        let (up, down) = weights[e as usize];
        stack.push((alive, rest, mass * down));
        stack.push((alive | 1 << e, rest, mass * up));
    }
    Ok(FactoringOutcome::Complete {
        reliability: (acc.0 + acc.1).clamp(0.0, 1.0),
        leaves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{reliability_naive, reliability_naive_exact};
    use netgraph::{GraphKind, NetworkBuilder, NodeId};

    fn mesh() -> (Network, FlowDemand) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(5);
        let edges = [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 4),
            (0, 3),
        ];
        let probs = [0.1, 0.2, 0.3, 0.15, 0.25, 0.05, 0.35, 0.4];
        for (&(u, v), &p) in edges.iter().zip(&probs) {
            b.add_edge(n[u], n[v], 1, p).unwrap();
        }
        (b.build(), FlowDemand::new(n[0], n[4], 1))
    }

    /// The unbudgeted anytime run: reliability and conditioning leaves.
    fn complete(net: &Network, d: FlowDemand) -> (f64, u64) {
        match reliability_factoring_anytime(net, d, &CalcOptions::default(), None).unwrap() {
            FactoringOutcome::Complete {
                reliability,
                leaves,
            } => (reliability, leaves),
            FactoringOutcome::Partial { .. } => panic!("unlimited budget must complete"),
        }
    }

    #[test]
    fn matches_naive() {
        let (net, d) = mesh();
        let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let (fact, leaves) = complete(&net, d);
        assert!((naive - fact).abs() < 1e-12);
        assert!(leaves < 1 << net.edge_count(), "pruning must cut the tree");
        let r = reliability_factoring(&net, d, &CalcOptions::default()).unwrap();
        assert_eq!(r.to_bits(), fact.to_bits(), "one body, one answer");
    }

    #[test]
    fn matches_naive_demand_two() {
        let (net, mut d) = mesh();
        d.demand = 2;
        let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let fact = reliability_factoring(&net, d, &CalcOptions::default()).unwrap();
        assert!((naive - fact).abs() < 1e-12);
    }

    #[test]
    fn infeasible_is_zero_in_one_leaf() {
        let (net, mut d) = mesh();
        d.demand = 50;
        let (r, leaves) = complete(&net, d);
        assert_eq!(r, 0.0);
        assert_eq!(leaves, 1, "optimistic bound fires at the root");
    }

    #[test]
    fn perfect_network_is_one_in_one_leaf() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.0).unwrap();
        let net = b.build();
        // p = 0: even "all failed" keeps... no — all-failed removes the link.
        // The pessimistic bound does not fire, but the tree is tiny anyway.
        let r = reliability_factoring(
            &net,
            FlowDemand::new(NodeId(0), NodeId(1), 1),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(r, 1.0);
    }

    #[test]
    fn matches_the_exact_rational_reference() {
        let (net, d) = mesh();
        let f = reliability_factoring(&net, d, &CalcOptions::default()).unwrap();
        let e = reliability_naive_exact(&net, d, &CalcOptions::default()).unwrap();
        assert!((f - e.to_f64()).abs() < 1e-12);
    }

    #[test]
    fn anytime_resume_is_bit_identical() {
        let (net, d) = mesh();
        let uninterrupted = complete(&net, d);
        let tiny = CalcOptions {
            budget: crate::budget::Budget {
                max_configs: Some(3),
                ..crate::budget::Budget::unlimited()
            },
            ..CalcOptions::default()
        };
        let mut ck = None;
        let mut last_low = 0.0f64;
        let mut last_high = 1.0f64;
        for step in 0..100_000 {
            match reliability_factoring_anytime(&net, d, &tiny, ck.as_ref()).unwrap() {
                FactoringOutcome::Complete {
                    reliability,
                    leaves,
                } => {
                    assert_eq!(reliability.to_bits(), uninterrupted.0.to_bits());
                    assert_eq!(leaves, uninterrupted.1);
                    assert!(step > 0, "budget of 3 frames cannot finish in one run");
                    return;
                }
                FactoringOutcome::Partial {
                    r_low,
                    r_high,
                    explored,
                    checkpoint,
                } => {
                    assert!(r_low >= last_low - 1e-15, "lower bound must not regress");
                    assert!(r_high <= last_high + 1e-15, "upper bound must not regress");
                    assert!(r_low <= uninterrupted.0 + 1e-12);
                    assert!(r_high >= uninterrupted.0 - 1e-12);
                    assert!((0.0..=1.0).contains(&explored));
                    last_low = r_low;
                    last_high = r_high;
                    ck = Some(checkpoint);
                }
            }
        }
        panic!("resume loop failed to converge");
    }

    #[test]
    fn anytime_immediate_cancel_reports_vacuous_bounds() {
        let (net, d) = mesh();
        let cancel = crate::budget::CancelToken::new();
        cancel.trip();
        let opts = CalcOptions {
            budget: crate::budget::Budget {
                cancel: Some(cancel),
                ..crate::budget::Budget::unlimited()
            },
            ..CalcOptions::default()
        };
        match reliability_factoring_anytime(&net, d, &opts, None).unwrap() {
            FactoringOutcome::Partial {
                r_low,
                r_high,
                explored,
                checkpoint,
            } => {
                assert_eq!(r_low, 0.0);
                assert_eq!(r_high, 1.0);
                assert_eq!(explored, 0.0);
                assert_eq!(
                    checkpoint.pending.len(),
                    1,
                    "only the root frame is pending"
                );
            }
            FactoringOutcome::Complete { .. } => panic!("tripped token must interrupt"),
        }
    }

    #[test]
    fn anytime_rejects_foreign_frames() {
        let (net, d) = mesh();
        let bad = FactoringCheckpoint {
            accum: (0.0, 0.0),
            leaves: 0,
            pending: vec![(1u64 << 63, 0)],
        };
        let err = reliability_factoring_anytime(&net, d, &CalcOptions::default(), Some(&bad))
            .unwrap_err();
        assert!(matches!(err, ReliabilityError::CheckpointMismatch { .. }));
    }
}
