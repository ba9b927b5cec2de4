//! Integration properties for the analysis extensions: Esary–Proschan bounds
//! sandwich the exact reliability, and series-parallel reduction preserves it.

use flowrel::core::{
    esary_proschan_bounds, reduce_unit_demand, reliability_naive, CalcOptions, FlowDemand,
};
use flowrel::netgraph::{GraphKind, Network, NetworkBuilder, NodeId};
use proptest::prelude::*;

fn build(n: usize, raw: &[(usize, usize, u32)], kind: GraphKind) -> Network {
    let mut b = NetworkBuilder::new(kind);
    let nodes = b.add_nodes(n);
    for &(u, v, p) in raw {
        b.add_edge(nodes[u % n], nodes[v % n], 1, p as f64 / 32.0)
            .unwrap();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn ep_bounds_sandwich_exact(
        n in 2usize..6,
        raw in proptest::collection::vec((0usize..6, 0usize..6, 1u32..31), 1..9),
    ) {
        let net = build(n, &raw, GraphKind::Directed);
        let d = FlowDemand::new(NodeId(0), NodeId::from(n - 1), 1);
        let exact = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let (lo, hi) = esary_proschan_bounds(&net, d, 100_000).unwrap();
        prop_assert!(lo <= exact + 1e-9, "lower {} > exact {}", lo, exact);
        prop_assert!(exact <= hi + 1e-9, "exact {} > upper {}", exact, hi);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&lo));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&hi));
    }

    #[test]
    fn sp_reduction_preserves_reliability(
        n in 2usize..7,
        raw in proptest::collection::vec((0usize..7, 0usize..7, 1u32..31), 1..12),
    ) {
        let net = build(n, &raw, GraphKind::Undirected);
        let d = FlowDemand::new(NodeId(0), NodeId::from(n - 1), 1);
        let exact = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let red = reduce_unit_demand(&net, d.source, d.sink);
        let sp = reliability_naive(
            &red.net,
            FlowDemand::new(red.source, red.sink, 1),
            &CalcOptions::default(),
        )
        .unwrap();
        prop_assert!((exact - sp).abs() < 1e-10, "exact {} vs sp {}", exact, sp);
    }

    #[test]
    fn sp_reduction_never_grows_the_network(
        n in 2usize..7,
        raw in proptest::collection::vec((0usize..7, 0usize..7, 1u32..31), 1..12),
    ) {
        let net = build(n, &raw, GraphKind::Undirected);
        let red = reduce_unit_demand(&net, NodeId(0), NodeId::from(n - 1));
        prop_assert!(red.net.edge_count() <= net.edge_count());
        prop_assert!(red.net.node_count() <= net.node_count());
        // terminals survive the reduction
        prop_assert!(red.source.index() < red.net.node_count());
        prop_assert!(red.sink.index() < red.net.node_count());
    }
}

/// Stratified (dagger) Monte Carlo on a planted-bottleneck instance: the
/// estimator covers the exact value and does not lose to plain sampling.
#[test]
fn stratified_mc_on_bottleneck_instance() {
    use flowrel::montecarlo::{engine, EstimatorKind, McBudget, McReport, McSettings, StopTarget};
    let (inst, cut) = flowrel::workloads::generators::barbell(Default::default());
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let exact = reliability_naive(&inst.net, d, &CalcOptions::default()).unwrap();
    let estimate = |estimator: EstimatorKind, strata: &[_]| -> McReport {
        let settings = McSettings {
            seed: 11,
            estimator,
            strata: strata.to_vec(),
            target: StopTarget {
                max_samples: 40_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let budget = McBudget::unlimited();
        let out = engine::run(
            &inst.net,
            inst.source,
            inst.sink,
            inst.demand,
            &settings,
            &budget,
            false,
        );
        *out.unwrap().report()
    };
    let strat = estimate(EstimatorKind::Dagger, &cut);
    assert!(
        (strat.ci_low <= exact && exact <= strat.ci_high) || (strat.mean - exact).abs() < 0.01,
        "stratified {strat:?} misses exact {exact}"
    );
    let plain = estimate(EstimatorKind::Crude, &[]);
    assert!(
        strat.std_error <= plain.std_error * 1.25,
        "stratification should not inflate variance: {} vs {}",
        strat.std_error,
        plain.std_error
    );
}
