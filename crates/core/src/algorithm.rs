//! The end-to-end bottleneck algorithm (Sections III–IV).
//!
//! Pipeline: validate/decompose along the bottleneck set → enumerate the
//! assignment set `D` → build both side spectra (`|D| · 2^{|E_c|}` max-flow
//! calls each) → accumulate over the `2^k` bottleneck configurations with
//! inclusion–exclusion. Total `O(2^{α|E|} · |V||E|)` for constant `d`, `k` —
//! the paper's headline bound.
//!
//! The engine here is unbudgeted and generic over the weight domain: it is
//! the `f64` and [`BigRational`] reference the tests compare against.
//! Budgeted, checkpointed runs execute the same split as a `Cut` slot of
//! the plan interpreter ([`crate::plan`]).

use exactmath::BigRational;
use netgraph::{EdgeId, Network};

use crate::accumulate::combine;
use crate::assign::{crossing_ranges, enumerate_assignments, supported_assignment_masks};
use crate::bottleneck::{validate_bottleneck_set, BottleneckSet};
use crate::decompose::{decompose, Side};
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::options::CalcOptions;
use crate::oracle::SideOracle;
use crate::spectrum::RealizationSpectrum;
use crate::sweep::{SweepConfig, SweepStats};
use crate::weight::{edge_weights, edge_weights_exact, EdgeWeights, Weight};

/// What the bottleneck algorithm did, for reporting and experiments.
#[derive(Clone, Debug)]
pub struct BottleneckReport {
    /// The bottleneck set used.
    pub set: BottleneckSet,
    /// Size of the assignment set `|D|`.
    pub assignment_count: usize,
    /// `α` of the decomposition.
    pub alpha: f64,
    /// Sweep-engine counters, merged over both side spectra (configurations
    /// tested, solver calls, certificate hits).
    pub sweep: SweepStats,
    /// Per-leaf-slot planner accounting (empty for one-level runs): how the
    /// plan interpreter apportioned the budget and what each sweep actually
    /// cost. See [`PlanSlotReport`].
    pub plan_slots: Vec<PlanSlotReport>,
}

/// Budget and cost accounting for one plan leaf slot, in DFS slot order.
#[derive(Clone, Debug)]
pub struct PlanSlotReport {
    /// DFS slot index (matches `leaf #i` / `sweep #i` in the rendered plan).
    pub index: usize,
    /// Leaf kind: `"naive"`, `"cut"`, `"sweep"`, or — in hybrid mode, when
    /// the budget forced this scalar leaf to be estimated statistically —
    /// `"mc"` (in that case `configs`/`explored` count samples).
    pub kind: &'static str,
    /// Configurations the planner predicted this slot still had to
    /// enumerate when the run started (resume-aware).
    pub predicted: f64,
    /// Cost-proportional fraction of the configuration budget the
    /// apportioner grants this slot's subtree (predicted cost over the total
    /// predicted cost; the sentinel fork uses exactly this ratio when the
    /// budget tracks a configuration allowance).
    pub share: f64,
    /// Configurations the sweep actually tested during this run.
    pub configs: u64,
    /// Fraction of this slot's own configuration space explored so far.
    pub explored: f64,
}

/// Projects parent-network weights onto a side's own edge numbering.
fn side_weights<W: Weight>(side: &Side, parent: &EdgeWeights<W>) -> EdgeWeights<W> {
    side.edge_origin
        .iter()
        .map(|&e| parent[e.index()].clone())
        .collect()
}

/// Generic bottleneck reliability over any weight domain.
pub fn reliability_bottleneck_weighted<W: Weight>(
    net: &Network,
    demand: FlowDemand,
    cut: &[EdgeId],
    weights: &EdgeWeights<W>,
    opts: &CalcOptions,
) -> Result<(W, BottleneckReport), ReliabilityError> {
    demand.validate(net)?;
    let set = validate_bottleneck_set(net, demand.source, demand.sink, cut)?;
    reliability_bottleneck_on_set(net, demand, &set, weights, opts)
}

/// As [`reliability_bottleneck_weighted`], with a pre-validated set.
pub fn reliability_bottleneck_on_set<W: Weight>(
    net: &Network,
    demand: FlowDemand,
    set: &BottleneckSet,
    weights: &EdgeWeights<W>,
    opts: &CalcOptions,
) -> Result<(W, BottleneckReport), ReliabilityError> {
    if net.has_multistate() {
        return Err(ReliabilityError::MultiState {
            operation: "the one-level bottleneck decomposition",
        });
    }
    let report = |count: usize, sweep: SweepStats| BottleneckReport {
        set: set.clone(),
        assignment_count: count,
        alpha: set.alpha(net.edge_count()),
        sweep,
        plan_slots: Vec::new(),
    };
    if demand.demand == 0 {
        return Ok((W::one(), report(0, SweepStats::default())));
    }
    // assignment set D (Section III-B)
    let ranges = crossing_ranges(
        net,
        &set.edges,
        &set.forward_oriented,
        demand.demand,
        opts.assignment_model,
    );
    let assignments = enumerate_assignments(demand.demand, &ranges);
    if assignments.is_empty() {
        // the bottleneck cannot carry d at all: reliability is trivially zero
        return Ok((W::zero(), report(0, SweepStats::default())));
    }
    if assignments.len() > opts.max_assignments || assignments.len() > 31 {
        return Err(ReliabilityError::TooManyAssignments {
            count: assignments.len(),
            max: opts.max_assignments.min(31),
        });
    }

    let dec = decompose(net, &demand, set);
    let k = dec.cut.len();

    // side spectra (Section III-C, streamed through the sweep engine)
    let w_s = side_weights(&dec.side_s, weights);
    let w_t = side_weights(&dec.side_t, weights);
    let mut oracle_s = SideOracle::new(&dec.side_s, &assignments, opts.solver)?;
    let mut oracle_t = SideOracle::new(&dec.side_t, &assignments, opts.solver)?;
    let cfg = SweepConfig::from_opts(opts);
    let build_s = |o: &mut SideOracle| {
        RealizationSpectrum::build_with(
            o,
            &w_s,
            opts.max_side_edges,
            opts.max_assignments,
            opts.prune_infeasible_assignments,
            &cfg,
        )
    };
    let build_t = |o: &mut SideOracle| {
        RealizationSpectrum::build_with(
            o,
            &w_t,
            opts.max_side_edges,
            opts.max_assignments,
            opts.prune_infeasible_assignments,
            &cfg,
        )
    };
    let (res_s, res_t) = if opts.parallel {
        // the two sides are independent subproblems: build them concurrently
        rayon::join(|| build_s(&mut oracle_s), || build_t(&mut oracle_t))
    } else {
        (build_s(&mut oracle_s), build_t(&mut oracle_t))
    };
    let (spec_s, stats_s) = res_s?;
    let (spec_t, stats_t) = res_t?;
    let mut sweep = stats_s;
    sweep.merge(&stats_t);

    // accumulation (Section IV)
    let support = supported_assignment_masks(&assignments, k);
    let cut_weights: Vec<(W, W)> = dec
        .cut
        .iter()
        .map(|&e| weights[e.index()].clone())
        .collect();
    let r = combine(
        &cut_weights,
        &support,
        &spec_s.mass,
        &spec_t.mass,
        assignments.len(),
        opts.accumulation,
    );
    Ok((r, report(assignments.len(), sweep)))
}

/// Bottleneck reliability in `f64`.
pub fn reliability_bottleneck(
    net: &Network,
    demand: FlowDemand,
    cut: &[EdgeId],
    opts: &CalcOptions,
) -> Result<f64, ReliabilityError> {
    reliability_bottleneck_weighted(net, demand, cut, &edge_weights(net), opts).map(|(r, _)| r)
}

/// Bottleneck reliability with exact rational arithmetic.
pub fn reliability_bottleneck_exact(
    net: &Network,
    demand: FlowDemand,
    cut: &[EdgeId],
    opts: &CalcOptions,
) -> Result<BigRational, ReliabilityError> {
    reliability_bottleneck_weighted(net, demand, cut, &edge_weights_exact(net), opts)
        .map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{reliability_naive, reliability_naive_exact};
    use netgraph::{GraphKind, NetworkBuilder, NodeId};

    /// Bridge graph: triangle — bridge — triangle.
    fn bridge_net() -> (Network, FlowDemand, Vec<EdgeId>) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.15).unwrap();
        b.add_edge(n[2], n[0], 1, 0.2).unwrap();
        let bridge = b.add_edge(n[2], n[3], 2, 0.05).unwrap();
        b.add_edge(n[3], n[4], 1, 0.1).unwrap();
        b.add_edge(n[4], n[5], 1, 0.25).unwrap();
        b.add_edge(n[5], n[3], 1, 0.3).unwrap();
        (b.build(), FlowDemand::new(n[0], n[5], 1), vec![bridge])
    }

    /// Double-diamond with a 2-link bottleneck.
    fn two_cut_net() -> (Network, FlowDemand, Vec<EdgeId>) {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap();
        b.add_edge(n[0], n[2], 2, 0.2).unwrap();
        let c1 = b.add_edge(n[1], n[3], 2, 0.05).unwrap();
        let c2 = b.add_edge(n[2], n[4], 1, 0.15).unwrap();
        b.add_edge(n[3], n[5], 2, 0.1).unwrap();
        b.add_edge(n[4], n[5], 2, 0.25).unwrap();
        b.add_edge(n[1], n[2], 1, 0.3).unwrap(); // intra-side extra
        (b.build(), FlowDemand::new(n[0], n[5], 2), vec![c1, c2])
    }

    #[test]
    fn bridge_matches_naive() {
        let (net, d, cut) = bridge_net();
        let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let bottleneck = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
        assert!(
            (naive - bottleneck).abs() < 1e-12,
            "naive {naive} vs bottleneck {bottleneck}"
        );
        assert!(bottleneck > 0.0 && bottleneck < 1.0);
    }

    #[test]
    fn two_cut_matches_naive_all_methods() {
        let (net, d, cut) = two_cut_net();
        let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        for method in [
            crate::accumulate::AccumulationMethod::PaperDirect,
            crate::accumulate::AccumulationMethod::ZetaInclusionExclusion,
            crate::accumulate::AccumulationMethod::Complement,
        ] {
            let opts = CalcOptions {
                accumulation: method,
                ..Default::default()
            };
            let r = reliability_bottleneck(&net, d, &cut, &opts).unwrap();
            assert!(
                (naive - r).abs() < 1e-12,
                "{method:?}: naive {naive} vs {r}"
            );
        }
    }

    #[test]
    fn exact_matches_naive_exact() {
        let (net, d, cut) = two_cut_net();
        let naive = reliability_naive_exact(&net, d, &CalcOptions::default()).unwrap();
        let bn = reliability_bottleneck_exact(&net, d, &cut, &CalcOptions::default()).unwrap();
        assert_eq!(naive, bn, "exact arithmetic must agree bit for bit");
    }

    #[test]
    fn insufficient_cut_capacity_is_zero() {
        let (net, _, cut) = two_cut_net();
        // total cut capacity is 3 < 4
        let d = FlowDemand::new(NodeId(0), NodeId(5), 4);
        let (r, report) = reliability_bottleneck_weighted(
            &net,
            d,
            &cut,
            &edge_weights(&net),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(r, 0.0);
        assert_eq!(report.assignment_count, 0);
    }

    #[test]
    fn zero_demand_is_one() {
        let (net, _, cut) = bridge_net();
        let d = FlowDemand::new(NodeId(0), NodeId(5), 0);
        let r = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
        assert_eq!(r, 1.0);
    }

    #[test]
    fn report_carries_geometry() {
        let (net, d, cut) = two_cut_net();
        let (_, report) = reliability_bottleneck_weighted(
            &net,
            d,
            &cut,
            &edge_weights(&net),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(report.set.k(), 2);
        assert_eq!(
            report.assignment_count, 2,
            "D = {{(2,0)... no: (1,1),(2,0)}}"
        );
        assert!((report.alpha - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_variants_agree_and_report_stats() {
        let (net, d, cut) = two_cut_net();
        let w = edge_weights(&net);
        let plain = CalcOptions {
            certificate_cache: false,
            ..Default::default()
        };
        let (r0, rep0) = reliability_bottleneck_weighted(&net, d, &cut, &w, &plain).unwrap();
        let (r1, rep1) =
            reliability_bottleneck_weighted(&net, d, &cut, &w, &CalcOptions::default()).unwrap();
        let (r2, _) =
            reliability_bottleneck_weighted(&net, d, &cut, &w, &CalcOptions::parallel()).unwrap();
        assert_eq!(r0, r1, "serial cert-cached run must be bit-identical");
        assert!((r0 - r2).abs() < 1e-12);
        assert_eq!(rep0.sweep.solver_calls_avoided(), 0);
        assert!(rep1.sweep.solver_calls_avoided() > 0);
        assert_eq!(rep1.sweep.configs, rep0.sweep.configs);
        assert!(rep0.sweep.configs > 0);
    }

    #[test]
    fn anytime_bounds_bracket_and_resume_is_bit_identical() {
        use crate::checkpoint::{Checkpoint, CheckpointKind};
        use crate::plan::{DecompositionPlan, PlanNode, PlanOutcome};

        let (net, d, cut) = two_cut_net();
        let set = validate_bottleneck_set(&net, d.source, d.sink, &cut).unwrap();
        let exact = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
        // the flat one-level split: a depth-0 plan is one `Cut` slot
        let flat = |max_configs: Option<u64>| CalcOptions {
            max_depth: 0,
            budget: crate::budget::Budget {
                max_configs,
                ..Default::default()
            },
            ..Default::default()
        };
        let plan = DecompositionPlan::plan_on_set(&net, d, &set, &flat(None), 3).unwrap();
        assert!(matches!(plan.root_node(), PlanNode::Cut(_)));
        assert_eq!(plan.leaf_count(), 1);

        // unlimited budget: the Cut slot must equal the one-level engine
        match plan.execute(&flat(None), None).unwrap() {
            PlanOutcome::Complete { reliability, .. } => assert_eq!(
                reliability.to_bits(),
                exact.to_bits(),
                "a complete Cut slot must be bit-identical"
            ),
            PlanOutcome::Partial { .. } => panic!("unlimited budget must complete"),
        }

        // tiny budget slices, each resumed through the checkpoint text
        let mut resume = None;
        let mut partials = 0usize;
        let r = loop {
            match plan.execute(&flat(Some(3)), resume.as_ref()).unwrap() {
                PlanOutcome::Complete { reliability, .. } => break reliability,
                PlanOutcome::Partial {
                    r_low,
                    r_high,
                    explored,
                    checkpoint,
                    ..
                } => {
                    assert!(
                        r_low <= exact + 1e-12 && exact <= r_high + 1e-12,
                        "[{r_low}, {r_high}] must bracket {exact}"
                    );
                    assert!((0.0..=1.0).contains(&explored));
                    partials += 1;
                    assert!(partials < 10_000, "budgeted loop must make progress");
                    let text = Checkpoint {
                        fingerprint: 0,
                        reduce_shape: None,
                        radices: None,
                        kind: CheckpointKind::Plan(checkpoint),
                    }
                    .to_text();
                    let CheckpointKind::Plan(ck) = Checkpoint::from_text(&text).unwrap().kind
                    else {
                        panic!("a plan checkpoint must parse back as a plan checkpoint")
                    };
                    resume = Some(ck);
                }
            }
        };
        assert!(partials >= 1, "a 3-config budget must interrupt this sweep");
        assert_eq!(
            r.to_bits(),
            exact.to_bits(),
            "serial resumed run must be bit-identical"
        );
    }

    #[test]
    fn paper_faithful_options_agree() {
        let (net, d, cut) = two_cut_net();
        let default = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
        let faithful =
            reliability_bottleneck(&net, d, &cut, &CalcOptions::paper_faithful()).unwrap();
        assert!((default - faithful).abs() < 1e-12);
    }
}
