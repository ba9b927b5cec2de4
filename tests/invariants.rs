//! Property-based invariants of the reliability function itself.

use flowrel::core::{
    find_all_bottleneck_sets, reliability_naive, validate_bottleneck_set, CalcOptions, FlowDemand,
};
use flowrel::montecarlo;
use flowrel::netgraph::{GraphKind, Network, NetworkBuilder, NodeId};
use flowrel::workloads::generators;
use proptest::prelude::*;

type Draw = (usize, Vec<(usize, usize, u64, u32)>, u64);

fn draw_strategy() -> impl Strategy<Value = Draw> {
    (
        2usize..7,
        proptest::collection::vec((0usize..7, 0usize..7, 1u64..4, 1u32..31), 1..10),
        1u64..3,
    )
}

fn build(kind: GraphKind, n: usize, raw: &[(usize, usize, u64, u32)]) -> Network {
    let mut b = NetworkBuilder::new(kind);
    let nodes = b.add_nodes(n);
    for &(u, v, cap, p32) in raw {
        b.add_edge(nodes[u % n], nodes[v % n], cap, p32 as f64 / 32.0)
            .unwrap();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn reliability_is_a_probability((n, raw, d) in draw_strategy()) {
        let net = build(GraphKind::Undirected, n, &raw);
        let demand = FlowDemand::new(NodeId(0), NodeId::from(n - 1), d);
        let r = reliability_naive(&net, demand, &CalcOptions::default()).unwrap();
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&r));
    }

    /// Improving one link's failure probability never decreases reliability.
    #[test]
    fn monotone_in_link_probability((n, raw, d) in draw_strategy(), which in any::<prop::sample::Index>()) {
        let net = build(GraphKind::Undirected, n, &raw);
        let demand = FlowDemand::new(NodeId(0), NodeId::from(n - 1), d);
        let base = reliability_naive(&net, demand, &CalcOptions::default()).unwrap();

        let i = which.index(raw.len());
        let mut improved = raw.clone();
        improved[i].3 /= 2; // halve the failure probability
        let net2 = build(GraphKind::Undirected, n, &improved);
        let better = reliability_naive(&net2, demand, &CalcOptions::default()).unwrap();
        prop_assert!(better + 1e-12 >= base, "improved {} < base {}", better, base);
    }

    /// Increasing one link's capacity never decreases reliability.
    #[test]
    fn monotone_in_capacity((n, raw, d) in draw_strategy(), which in any::<prop::sample::Index>()) {
        let net = build(GraphKind::Undirected, n, &raw);
        let demand = FlowDemand::new(NodeId(0), NodeId::from(n - 1), d);
        let base = reliability_naive(&net, demand, &CalcOptions::default()).unwrap();

        let i = which.index(raw.len());
        let mut upgraded = raw.clone();
        upgraded[i].2 += 2;
        let net2 = build(GraphKind::Undirected, n, &upgraded);
        let better = reliability_naive(&net2, demand, &CalcOptions::default()).unwrap();
        prop_assert!(better + 1e-12 >= base);
    }

    /// Reliability is antitone in the demand: asking for more bit-rate can
    /// only be harder.
    #[test]
    fn antitone_in_demand((n, raw, _) in draw_strategy()) {
        let net = build(GraphKind::Undirected, n, &raw);
        let mut last = 1.0f64;
        for d in 0..4u64 {
            let demand = FlowDemand::new(NodeId(0), NodeId::from(n - 1), d);
            let r = reliability_naive(&net, demand, &CalcOptions::default()).unwrap();
            prop_assert!(r <= last + 1e-12, "demand {} has r {} > {}", d, r, last);
            last = r;
        }
    }

    /// Two networks in series (sharing only one node) multiply.
    #[test]
    fn series_composition_multiplies(
        probs_a in proptest::collection::vec(1u32..31, 1..4),
        probs_b in proptest::collection::vec(1u32..31, 1..4),
    ) {
        // A: parallel links s->m, B: parallel links m->t
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let s = b.add_node();
        let m = b.add_node();
        let t = b.add_node();
        for &p in &probs_a {
            b.add_edge(s, m, 1, p as f64 / 32.0).unwrap();
        }
        for &p in &probs_b {
            b.add_edge(m, t, 1, p as f64 / 32.0).unwrap();
        }
        let net = b.build();
        let opts = CalcOptions::default();
        let whole = reliability_naive(&net, FlowDemand::new(s, t, 1), &opts).unwrap();
        let left = reliability_naive(&net, FlowDemand::new(s, m, 1), &opts).unwrap();
        let right = reliability_naive(&net, FlowDemand::new(m, t, 1), &opts).unwrap();
        prop_assert!((whole - left * right).abs() < 1e-10);
    }
    /// Every candidate the bottleneck search enumerates is a genuine
    /// bottleneck set: `validate_bottleneck_set` accepts it (separating,
    /// minimal, leaving exactly two components), on random instances from
    /// every generator family.
    #[test]
    fn enumerated_bottleneck_sets_all_validate(seed in 0u64..1000, family in 0usize..4) {
        let inst = match family {
            0 => generators::er_random(6, 9, 3, seed),
            1 => generators::grid(3, 3, seed),
            2 => generators::chained_barbell(3, 3, 1, seed),
            3 => generators::nested_barbell(2, 3, 1, seed),
            _ => unreachable!(),
        };
        let sets = match find_all_bottleneck_sets(&inst.net, inst.source, inst.sink, 3) {
            Ok(sets) => sets,
            // disconnected draws legitimately have no bottleneck set
            Err(_) => return Ok(()),
        };
        for set in sets {
            let revalidated =
                validate_bottleneck_set(&inst.net, inst.source, inst.sink, &set.edges);
            prop_assert!(
                revalidated.is_ok(),
                "enumerated set {:?} fails validation: {:?}",
                set.edges,
                revalidated.err()
            );
            let ok = revalidated.unwrap();
            prop_assert_eq!(ok.edges, set.edges);
            prop_assert_eq!(
                (ok.side_s_edges, ok.side_t_edges),
                (set.side_s_edges, set.side_t_edges)
            );
        }
    }
}

/// The Monte-Carlo estimator's CI covers the exact value (statistical test
/// with a fixed seed, so deterministic in CI).
#[test]
fn monte_carlo_covers_exact() {
    let mut b = NetworkBuilder::new(GraphKind::Undirected);
    let n = b.add_nodes(4);
    b.add_edge(n[0], n[1], 1, 0.125).unwrap();
    b.add_edge(n[0], n[2], 1, 0.25).unwrap();
    b.add_edge(n[1], n[3], 1, 0.1875).unwrap();
    b.add_edge(n[2], n[3], 1, 0.3125).unwrap();
    b.add_edge(n[1], n[2], 1, 0.0625).unwrap();
    let net = b.build();
    let d = FlowDemand::new(n[0], n[3], 1);
    let exact = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
    for seed in 0..5 {
        let settings = montecarlo::McSettings {
            seed,
            estimator: montecarlo::EstimatorKind::Crude,
            target: montecarlo::StopTarget {
                max_samples: 40_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let budget = montecarlo::McBudget::unlimited();
        let out = montecarlo::engine::run(&net, n[0], n[3], 1, &settings, &budget, false).unwrap();
        let est = out.report();
        assert!(
            (est.ci_low <= exact && exact <= est.ci_high) || (est.mean - exact).abs() < 0.01,
            "seed {seed}: CI [{}, {}] misses exact {exact}",
            est.ci_low,
            est.ci_high
        );
    }
}
