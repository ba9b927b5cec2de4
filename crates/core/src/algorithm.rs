//! The end-to-end bottleneck algorithm (Sections III–IV) on one given cut.
//!
//! Pipeline: validate/decompose along the bottleneck set → enumerate the
//! assignment set `D` → build both side spectra (`|D| · 2^{|E_c|}` max-flow
//! calls each) → accumulate over the `2^k` bottleneck configurations with
//! inclusion–exclusion. Total `O(2^{α|E|} · |V||E|)` for constant `d`, `k` —
//! the paper's headline bound.
//!
//! Both entry points run the one split body in [`crate::spectrum`]:
//! [`reliability_bottleneck`] as the `Cut` slot of a depth-0 plan
//! ([`crate::plan`]) under an unlimited budget, and
//! [`reliability_bottleneck_exact`] in [`BigRational`], so the exact value
//! checks the code the planner, the calculator and the server run.

use exactmath::BigRational;
use netgraph::{EdgeId, Network};

use crate::bottleneck::{validate_bottleneck_set, BottleneckSet};
use crate::budget::Budget;
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::options::CalcOptions;
use crate::plan::{DecompositionPlan, PlanOutcome};
use crate::spectrum::split_value;
use crate::sweep::SweepStats;
use crate::weight::edge_weights_exact;

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
    /// Per-leaf-slot planner accounting, in DFS slot order: how the plan
    /// interpreter apportioned the budget and what each sweep actually
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

/// Validates the demand and the cut, and refuses multi-state networks:
/// side spectra are binary up/down sweeps.
fn one_level_set(
    net: &Network,
    demand: FlowDemand,
    cut: &[EdgeId],
) -> Result<BottleneckSet, ReliabilityError> {
    demand.validate(net)?;
    let set = validate_bottleneck_set(net, demand.source, demand.sink, cut)?;
    if net.has_multistate() {
        return Err(ReliabilityError::MultiState {
            operation: "the one-level bottleneck decomposition",
        });
    }
    Ok(set)
}

/// Bottleneck reliability in `f64`: the depth-0 plan on `cut`, one `Cut`
/// slot, run to completion whatever `opts.budget` says.
pub fn reliability_bottleneck(
    net: &Network,
    demand: FlowDemand,
    cut: &[EdgeId],
    opts: &CalcOptions,
) -> Result<f64, ReliabilityError> {
    let set = one_level_set(net, demand, cut)?;
    let flat = CalcOptions {
        max_depth: 0,
        budget: Budget::unlimited(),
        ..opts.clone()
    };
    let plan = DecompositionPlan::plan_on_set(net, demand, &set, &flat, set.k())?;
    match plan.execute(&flat, None)? {
        PlanOutcome::Complete { reliability, .. } => Ok(reliability),
        PlanOutcome::Partial { .. } => unreachable!("an unlimited budget always completes"),
    }
}

/// Bottleneck reliability with exact rational arithmetic: the same split
/// body as the `Cut` slot, swept and combined in [`BigRational`].
pub fn reliability_bottleneck_exact(
    net: &Network,
    demand: FlowDemand,
    cut: &[EdgeId],
    opts: &CalcOptions,
) -> Result<BigRational, ReliabilityError> {
    let set = one_level_set(net, demand, cut)?;
    split_value(net, demand, &set, edge_weights_exact, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::AssignmentModel;
    use crate::calculator::{ReliabilityCalculator, Strategy};
    use crate::naive::{reliability_naive, reliability_naive_exact};
    use netgraph::{GraphKind, NetworkBuilder, NodeId};

    /// The one-level split as the calculator runs it on an explicit cut:
    /// the depth-0 plan on the instance as given, with its report.
    fn flat_run(
        net: &Network,
        d: FlowDemand,
        cut: &[EdgeId],
        opts: &CalcOptions,
    ) -> (f64, BottleneckReport) {
        let rep = ReliabilityCalculator::new()
            .with_strategy(Strategy::Bottleneck(cut.to_vec()))
            .with_options(CalcOptions {
                max_depth: 0,
                reduce: false,
                ..opts.clone()
            })
            .run_complete(net, d)
            .unwrap();
        (rep.reliability, rep.bottleneck.unwrap())
    }

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
        let opts = CalcOptions::default();
        let (r, report) = flat_run(&net, d, &cut, &opts);
        assert_eq!(r, 0.0);
        assert_eq!(report.assignment_count, 0);
        assert_eq!(reliability_bottleneck(&net, d, &cut, &opts).unwrap(), 0.0);
        let exact = reliability_bottleneck_exact(&net, d, &cut, &opts).unwrap();
        assert!(exact.is_zero());
    }

    #[test]
    fn refusals_are_typed_in_both_weight_domains() {
        let (net, d, cut) = two_cut_net();
        let one = CalcOptions {
            max_assignments: 1,
            ..CalcOptions::default()
        };
        assert!(matches!(
            reliability_bottleneck(&net, d, &cut, &one),
            Err(ReliabilityError::TooManyAssignments { count: 2, max: 1 })
        ));
        assert!(matches!(
            reliability_bottleneck_exact(&net, d, &cut, &one),
            Err(ReliabilityError::TooManyAssignments { count: 2, max: 1 })
        ));
        // 27 parallel links on the source side, then a bridge
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        for _ in 0..27 {
            b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        }
        let bridge = b.add_edge(n[1], n[2], 1, 0.1).unwrap();
        let (wide, d) = (b.build(), FlowDemand::new(n[0], n[2], 1));
        let opts = CalcOptions::default();
        assert!(matches!(
            reliability_bottleneck(&wide, d, &[bridge], &opts),
            Err(ReliabilityError::SideTooLarge { count: 27, max: 26 })
        ));
        assert!(matches!(
            reliability_bottleneck_exact(&wide, d, &[bridge], &opts),
            Err(ReliabilityError::SideTooLarge { count: 27, max: 26 })
        ));
    }

    #[test]
    fn cuts_wider_than_the_support_table_are_refused() {
        // 17 parallel unit links: one assignment per link at d = 1, under the
        // assignment cap, but a cut of more links than the split tabulates
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        let cut: Vec<EdgeId> = (0..17)
            .map(|_| b.add_edge(n[0], n[1], 1, 0.1).unwrap())
            .collect();
        let (net, d) = (b.build(), FlowDemand::new(n[0], n[1], 1));
        for model in [AssignmentModel::ForwardOnly, AssignmentModel::Net] {
            let opts = CalcOptions {
                assignment_model: model,
                ..CalcOptions::default()
            };
            assert!(matches!(
                reliability_bottleneck(&net, d, &cut, &opts),
                Err(ReliabilityError::TooManyEdges { count: 17, max: 16 })
            ));
            assert!(matches!(
                reliability_bottleneck_exact(&net, d, &cut, &opts),
                Err(ReliabilityError::TooManyEdges { count: 17, max: 16 })
            ));
        }
    }

    #[test]
    fn zero_demand_is_one() {
        let (net, _, cut) = bridge_net();
        let d = FlowDemand::new(NodeId(0), NodeId(5), 0);
        let r = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
        assert_eq!(r, 1.0);
        let exact = reliability_bottleneck_exact(&net, d, &cut, &CalcOptions::default()).unwrap();
        assert_eq!(exact, BigRational::one());
    }

    #[test]
    fn report_carries_geometry() {
        let (net, d, cut) = two_cut_net();
        let (_, report) = flat_run(&net, d, &cut, &CalcOptions::default());
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
        let plain = CalcOptions {
            certificate_cache: false,
            ..Default::default()
        };
        let (r0, rep0) = flat_run(&net, d, &cut, &plain);
        let (r1, rep1) = flat_run(&net, d, &cut, &CalcOptions::default());
        let (r2, _) = flat_run(&net, d, &cut, &CalcOptions::parallel());
        assert_eq!(
            r1.to_bits(),
            reliability_bottleneck(&net, d, &cut, &CalcOptions::default())
                .unwrap()
                .to_bits(),
            "the entry point is the calculator's flat split"
        );
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

        // unlimited budget: the Cut slot must equal the entry point
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
