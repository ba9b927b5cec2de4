//! The factoring (conditioning) algorithm with flow-based pruning — a classic
//! exact comparator for network-reliability problems, run as a walk on the
//! one sweep driver.
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
//! Both rest on feasibility being monotone in the alive links, and over a
//! fixed branching order they are exactly the subcube closure of
//! [`crate::sweep`]: a subtree is an aligned block of a counting walk whose
//! free links are the undecided ones, and its two bounds are the block's
//! top and bottom. So factoring is a `CountWalk` over the relevant links,
//! nearest the terminals first (BFS hops from s and t, the order the side
//! spectra use), swept by the naive sweeps' resume-and-settle frame under
//! `sweep::drive`. It shares their certificate cache, warm repair,
//! 64-configuration block runs, fan-out and budget: one unit per check, a
//! closed block debiting the tests that closed it. Its checkpoints are naive
//! bodies under `kind factoring`, validated as naive ones are.
//!
//! Worst case remains `O(2^|E|)`, but on most instances the bounds collapse
//! large parts of the tree; the benches quantify the gap against the naive
//! sweep and the bottleneck algorithm. Unlike the naive sweep, links with
//! `p(e) = 0` are enumerated too. Multi-state networks are refused: the
//! weight pairs name one up and one down state per link.
//!
//! One body serves every caller: [`reliability_factoring_anytime`] runs it
//! under the options' budget, and [`reliability_factoring`] and
//! [`crate::importance::birnbaum_importance`] run it under an unlimited
//! sentinel, so a resumed budgeted run returns the same bits as an
//! unbudgeted one.

use netgraph::{EdgeMask, Network};

use crate::budget::BudgetSentinel;
use crate::checkpoint::NaiveCheckpoint;
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::naive::{sweep_settled, NaiveOutcome};
use crate::options::{CalcOptions, MAX_FACTORING_EDGES};
use crate::oracle::DemandOracle;
use crate::preprocess::relevance_reduce;
use crate::sweep::{nearest_first, CountWalk};
use crate::weight::{edge_weights, Weight};

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
        NaiveOutcome::Complete { reliability, .. } => Ok(reliability),
        NaiveOutcome::Partial { .. } => unreachable!("unlimited budgets always finish"),
    }
}

/// Budget-aware factoring: walks the conditioning tree under `opts.budget`
/// and returns either the exact value or a rigorous `[r_low, r_high]`
/// interval plus a checkpoint to resume from (same instance). A serial
/// interrupted run resumed to completion returns the bits of an
/// uninterrupted run, budgeted or not.
pub fn reliability_factoring_anytime(
    net: &Network,
    demand: FlowDemand,
    opts: &CalcOptions,
    resume: Option<&NaiveCheckpoint>,
) -> Result<NaiveOutcome, ReliabilityError> {
    let sentinel = opts.budget.start();
    factoring_on(net, demand, &edge_weights(net), opts, &sentinel, resume)
}

/// The walk of a relevance-reduced instance: index bit `j` is link
/// `order[j]`, and the link nearest the terminals is the highest bit, so
/// the walk's blocks condition on it first.
fn walk<W: Weight>(net: &Network, demand: FlowDemand, weights: &[(W, W)]) -> CountWalk<W> {
    CountWalk::new(weights, nearest_first(net, [demand.source, demand.sink]))
}

/// The one factoring body: relevance-reduces the instance (carrying the
/// weight pairs along), then sweeps its walk under `sentinel`.
fn factoring_on(
    net: &Network,
    demand: FlowDemand,
    weights: &[(f64, f64)],
    opts: &CalcOptions,
    sentinel: &BudgetSentinel,
    resume: Option<&NaiveCheckpoint>,
) -> Result<NaiveOutcome, ReliabilityError> {
    demand.validate(net)?;
    if net.has_multistate() {
        return Err(ReliabilityError::MultiState {
            operation: "factoring (conditioning) and link importance",
        });
    }
    debug_assert_eq!(weights.len(), net.edge_count(), "one weight pair per link");
    let reduced = relevance_reduce(net, demand);
    if reduced.removed > 0 {
        // The reduction is deterministic, so checkpoint cursors always refer
        // to the same reduced walk on both runs.
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
    let mut oracle = DemandOracle::new(net, demand.source, demand.sink, demand.demand, opts.solver);
    let walk = walk(net, demand, weights);
    sweep_settled(&mut oracle, &walk, demand, opts, sentinel, resume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, CancelToken};
    use crate::checkpoint::{Checkpoint, CheckpointKind, SweepCursor};
    use crate::importance::birnbaum_importance;
    use crate::naive::{exact_sum, reliability_naive, reliability_naive_exact};
    use crate::naive::{reliability_naive_weighted, reliability_naive_with_stats};
    use crate::sweep::SweepStats;
    use crate::weight::edge_weights_exact;
    use netgraph::{GraphKind, NetworkBuilder, NodeId};
    use rand::{Rng, SeedableRng};

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

    /// The unbudgeted anytime run: reliability and counters.
    fn complete(net: &Network, d: FlowDemand, opts: &CalcOptions) -> (f64, SweepStats) {
        match reliability_factoring_anytime(net, d, opts, None).unwrap() {
            NaiveOutcome::Complete { reliability, stats } => (reliability, stats),
            NaiveOutcome::Partial { .. } => panic!("unlimited budget must complete"),
        }
    }

    fn budget(max_configs: u64) -> CalcOptions {
        CalcOptions {
            budget: Budget {
                max_configs: Some(max_configs),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        }
    }

    /// A 3×3 grid, links right and down, demand 1 corner to corner: 12
    /// links, so its walk has blocks above a leaf's 64 configurations.
    fn grid() -> (Network, FlowDemand) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(9);
        for i in 0..9 {
            let p = 0.05 + 0.025 * (i % 4) as f64;
            if i % 3 < 2 {
                b.add_edge(n[i], n[i + 1], 1, p).unwrap();
            }
            if i < 6 {
                b.add_edge(n[i], n[i + 3], 1, p).unwrap();
            }
        }
        (b.build(), FlowDemand::new(n[0], n[8], 1))
    }

    #[test]
    fn matches_naive() {
        for (net, d) in [mesh(), grid()] {
            let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
            let (fact, stats) = complete(&net, d, &CalcOptions::default());
            assert!((naive - fact).abs() < 1e-12);
            let r = reliability_factoring(&net, d, &CalcOptions::default()).unwrap();
            assert_eq!(r.to_bits(), fact.to_bits(), "one body, one answer");
            // the mesh's 8 links are four leaf blocks, which close nothing
            if net.edge_count() > 8 {
                assert!(
                    stats.configs < 1 << net.edge_count(),
                    "pruning must cut the tree"
                );
            }
        }
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
    fn infeasible_is_zero_without_a_check() {
        let (net, mut d) = mesh();
        d.demand = 50;
        let (r, stats) = complete(&net, d, &CalcOptions::default());
        assert_eq!(r, 0.0);
        assert_eq!(stats.configs, 0, "the all-alive max-flow settles it");
    }

    #[test]
    fn perfect_network_is_one_in_one_leaf() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.0).unwrap();
        let net = b.build();
        // p = 0: the failed state is enumerated too, at weight 0
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
        let (uninterrupted, _) = complete(&net, d, &CalcOptions::default());
        let tiny = budget(3);
        let mut ck = None;
        let mut last_low = 0.0f64;
        let mut last_high = 1.0f64;
        for step in 0..100_000 {
            match reliability_factoring_anytime(&net, d, &tiny, ck.as_ref()).unwrap() {
                NaiveOutcome::Complete { reliability, .. } => {
                    assert_eq!(reliability.to_bits(), uninterrupted.to_bits());
                    assert!(step > 0, "budget of 3 checks cannot finish in one run");
                    return;
                }
                NaiveOutcome::Partial {
                    r_low,
                    r_high,
                    explored,
                    checkpoint,
                    ..
                } => {
                    assert!(r_low >= last_low - 1e-15, "lower bound must not regress");
                    assert!(r_high <= last_high + 1e-15, "upper bound must not regress");
                    assert!(r_low <= uninterrupted + 1e-12);
                    assert!(r_high >= uninterrupted - 1e-12);
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
        let cancel = CancelToken::new();
        cancel.trip();
        let opts = CalcOptions {
            budget: Budget {
                cancel: Some(cancel),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        };
        match reliability_factoring_anytime(&net, d, &opts, None).unwrap() {
            NaiveOutcome::Partial {
                r_low,
                r_high,
                explored,
                checkpoint,
                ..
            } => {
                assert_eq!(r_low, 0.0);
                assert_eq!(r_high, 1.0);
                assert_eq!(explored, 0.0);
                let all = 1 << net.edge_count();
                assert_eq!(
                    checkpoint.cursor.remaining,
                    [(0, all)],
                    "the whole walk is pending"
                );
            }
            NaiveOutcome::Complete { .. } => panic!("tripped token must interrupt"),
        }
    }

    #[test]
    fn anytime_rejects_foreign_cursors() {
        let (net, d) = mesh();
        let bad = NaiveCheckpoint {
            cursor: SweepCursor {
                total: 1 << 9,
                remaining: vec![(0, 1 << 9)],
            },
            feasible: (0.0, 0.0),
            explored: (0.0, 0.0),
            certs: Vec::new(),
        };
        let err = reliability_factoring_anytime(&net, d, &CalcOptions::default(), Some(&bad))
            .unwrap_err();
        assert!(matches!(err, ReliabilityError::CheckpointMismatch { .. }));
    }

    #[test]
    fn multi_state_networks_are_refused() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_spectrum_edge(n[0], n[1], &[(0, 0.2), (1, 0.3), (2, 0.5)])
            .unwrap();
        b.add_edge(n[0], n[1], 1, 0.4).unwrap();
        let net = b.build();
        let d = FlowDemand::new(n[0], n[1], 2);
        let opts = CalcOptions::default();
        let refused = |e: ReliabilityError| matches!(e, ReliabilityError::MultiState { .. });
        assert!(refused(reliability_factoring(&net, d, &opts).unwrap_err()));
        assert!(refused(
            reliability_factoring_anytime(&net, d, &opts, None).unwrap_err()
        ));
        assert!(refused(birnbaum_importance(&net, d, &opts).unwrap_err()));
    }

    /// A random instance of 7–16 links over 4–7 nodes, a path from node 0
    /// to the last node first, capacities 1–2, failure probabilities in
    /// sixteenths, demand `d` from the first node to the last.
    fn random_instance(seed: u64, kind: GraphKind, d: u64) -> (Network, FlowDemand) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new(kind);
        let n = b.add_nodes(rng.gen_range(4..=7));
        for i in 0..rng.gen_range(7..=16) {
            let (u, v) = if i + 1 < n.len() {
                (i, i + 1)
            } else {
                let u = rng.gen_range(0..n.len());
                (u, (u + rng.gen_range(1..n.len())) % n.len())
            };
            let p = f64::from(rng.gen_range(1..=6u8)) / 16.0;
            b.add_edge(n[u], n[v], rng.gen_range(1..=2), p).unwrap();
        }
        (b.build(), FlowDemand::new(n[0], n[n.len() - 1], d))
    }

    /// Every random instance of the walk tests.
    fn random_instances() -> Vec<(Network, FlowDemand)> {
        let mut out = Vec::new();
        for seed in 0..4 {
            for kind in [GraphKind::Directed, GraphKind::Undirected] {
                for d in [1, 2] {
                    out.push(random_instance(seed, kind, d));
                }
            }
        }
        out
    }

    #[test]
    fn walk_sums_exactly_what_the_naive_sweep_sums() {
        let opts = CalcOptions::default();
        let mut closed = 0;
        for (net, d) in random_instances() {
            let red = relevance_reduce(&net, d);
            let (rn, rd) = (&red.net, red.demand);
            let oracle = DemandOracle::new(rn, rd.source, rd.sink, rd.demand, opts.solver);
            let exact = exact_sum(&oracle, &walk(rn, rd, &edge_weights_exact(rn)), &opts);
            assert_eq!(exact, reliability_naive_exact(&net, d, &opts).unwrap());
            let (r, stats) = complete(&net, d, &opts);
            assert!(
                (r - exact.to_f64()).abs() < 1e-12,
                "{r} vs {}",
                exact.to_f64()
            );
            // fewer checks than configurations: some block closed
            closed += usize::from(stats.configs < 1 << rn.edge_count());
        }
        assert!(closed > 0, "no instance closed a block");
    }

    /// Round-trips a factoring state through the checkpoint text.
    fn through_text(ck: NaiveCheckpoint) -> NaiveCheckpoint {
        let text = Checkpoint {
            fingerprint: 1,
            reduce_shape: None,
            radices: None,
            kind: CheckpointKind::Factoring(ck),
        }
        .to_text();
        assert!(text.contains("\nkind factoring\n"));
        match Checkpoint::from_text(&text).unwrap().kind {
            CheckpointKind::Factoring(ck) => ck,
            _ => unreachable!(),
        }
    }

    #[test]
    fn walk_resume_is_bit_identical() {
        for (net, d) in random_instances().into_iter().step_by(3) {
            let (full, stats) = complete(&net, d, &CalcOptions::default());
            for slice in [1, 37, 1000] {
                let opts = budget(slice);
                let mut state = None;
                let mut rounds = 0;
                let r = loop {
                    match reliability_factoring_anytime(&net, d, &opts, state.as_ref()).unwrap() {
                        NaiveOutcome::Complete { reliability, .. } => break reliability,
                        NaiveOutcome::Partial {
                            r_low,
                            r_high,
                            checkpoint,
                            ..
                        } => {
                            assert!(r_low <= full + 1e-12 && full <= r_high + 1e-12);
                            state = Some(through_text(checkpoint));
                            rounds += 1;
                        }
                    }
                };
                assert!(
                    rounds > 0 || stats.configs <= slice,
                    "slice {slice} must interrupt"
                );
                assert_eq!(r.to_bits(), full.to_bits(), "slice {slice}");
            }
        }
    }

    /// Fanned out over the threads `RAYON_NUM_THREADS` allows, the walk's
    /// pieces are aligned blocks and its answer agrees with the serial run.
    #[test]
    fn walk_fan_out_agrees_with_the_serial_sweep() {
        let fanned = CalcOptions {
            parallel: true,
            parallel_threshold: 0,
            ..CalcOptions::default()
        };
        let mut wide = 0;
        for (net, d) in random_instances() {
            let serial = reliability_factoring(&net, d, &CalcOptions::default()).unwrap();
            let (par, _) = complete(&net, d, &fanned);
            assert!((serial - par).abs() < 1e-12, "{serial} vs {par}");
            // the driver fans out walks of ten links or more
            wide += usize::from(relevance_reduce(&net, d).net.edge_count() >= 10);
        }
        assert!(wide > 0, "no instance fanned out");
    }

    /// Importances from the walk equal those of the Gray-walk reference
    /// under the same pinned weight pairs.
    #[test]
    fn walk_importance_matches_the_gray_walk_reference() {
        let opts = CalcOptions::default();
        for (net, d) in random_instances().into_iter().step_by(2) {
            let imp = birnbaum_importance(&net, d, &opts).unwrap();
            let base = edge_weights(&net);
            let (r, _) = reliability_naive_with_stats(&net, d, &opts).unwrap();
            assert!((imp.reliability - r).abs() < 1e-12);
            for e in 0..net.edge_count() {
                let pinned = |pair| {
                    let mut w = base.clone();
                    w[e] = pair;
                    reliability_naive_weighted(&net, d, &w, &opts).unwrap()
                };
                let ib = pinned((1.0, 0.0)) - pinned((0.0, 1.0));
                assert!(
                    (imp.birnbaum[e] - ib).abs() < 1e-12,
                    "link {e}: {} vs {ib}",
                    imp.birnbaum[e]
                );
            }
        }
    }
}
