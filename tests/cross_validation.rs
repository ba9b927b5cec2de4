//! Property-based cross-validation: every exact algorithm must compute the
//! same reliability on random networks, and the float paths must agree with
//! the exact-rational path.

use flowrel::core::algorithm::reliability_bottleneck;
use flowrel::core::{
    find_bottleneck_set, reliability_bottleneck_exact, reliability_factoring, reliability_naive,
    reliability_naive_exact, AssignmentModel, CalcOptions, FlowDemand, ReliabilityCalculator,
    ReliabilityError,
};
use flowrel::netgraph::{GraphKind, Network, NetworkBuilder};
use proptest::prelude::*;

fn random_network(kind: GraphKind) -> impl Strategy<Value = (Network, FlowDemand)> {
    (
        2usize..7,
        proptest::collection::vec((0usize..7, 0usize..7, 1u64..4, 0u32..30), 1..11),
        1u64..3,
    )
        .prop_map(move |(n, raw, demand)| {
            let mut b = NetworkBuilder::new(kind);
            let nodes = b.add_nodes(n);
            for (u, v, cap, p32) in raw {
                let (u, v) = (u % n, v % n);
                // probabilities on the /32 grid: exactly representable and
                // cheap for rational validation
                b.add_edge(nodes[u], nodes[v], cap, p32 as f64 / 32.0)
                    .unwrap();
            }
            (b.build(), FlowDemand::new(nodes[0], nodes[n - 1], demand))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn factoring_and_bridge_match_naive_undirected(
        (net, d) in random_network(GraphKind::Undirected)
    ) {
        let opts = CalcOptions::default();
        let naive = reliability_naive(&net, d, &opts).unwrap();
        let factoring = reliability_factoring(&net, d, &opts).unwrap();
        prop_assert!((naive - factoring).abs() < 1e-10, "naive {} vs factoring {}", naive, factoring);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&naive));
        // Eq. 1: whenever a bridge separates s from t, the k = 1 plan splits
        // there and must agree with the sweep. Reduction is off so the plan
        // sees the bridge found here (reduction contracts perfect links).
        if find_bottleneck_set(&net, d.source, d.sink, 1).is_ok() {
            let bridge = ReliabilityCalculator::new()
                .with_strategy(flowrel::core::Strategy::BottleneckAuto { max_k: 1 })
                .with_options(CalcOptions { reduce: false, ..CalcOptions::default() })
                .run_complete(&net, d)
                .unwrap()
                .reliability;
            prop_assert!((naive - bridge).abs() < 1e-10, "naive {} vs bridge {}", naive, bridge);
        }
    }

    #[test]
    fn factoring_matches_naive_directed((net, d) in random_network(GraphKind::Directed)) {
        let opts = CalcOptions::default();
        let naive = reliability_naive(&net, d, &opts).unwrap();
        let factoring = reliability_factoring(&net, d, &opts).unwrap();
        prop_assert!((naive - factoring).abs() < 1e-10);
    }

    #[test]
    fn float_matches_exact((net, d) in random_network(GraphKind::Undirected)) {
        let opts = CalcOptions::default();
        let naive = reliability_naive(&net, d, &opts).unwrap();
        let exact = reliability_naive_exact(&net, d, &opts).unwrap();
        prop_assert!((naive - exact.to_f64()).abs() < 1e-12);
        prop_assert!(!exact.is_negative());
    }

    /// When a bottleneck set exists, the net-crossing bottleneck algorithm is
    /// exactly the max-flow reliability; the paper's forward-only model never
    /// exceeds it.
    #[test]
    fn bottleneck_matches_naive_when_cut_exists(
        (net, d) in random_network(GraphKind::Undirected)
    ) {
        let Ok(set) = find_bottleneck_set(&net, d.source, d.sink, 3) else {
            return Ok(()); // no bottleneck in this draw
        };
        let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let net_opts = CalcOptions {
            assignment_model: AssignmentModel::Net,
            max_assignments: 31,
            ..CalcOptions::default()
        };
        match reliability_bottleneck(&net, d, &set.edges, &net_opts) {
            Ok(r) => prop_assert!(
                (naive - r).abs() < 1e-10,
                "net-model bottleneck {} vs naive {}", r, naive
            ),
            Err(ReliabilityError::TooManyAssignments { .. }) => {} // capacity-heavy draw
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        }
        let fwd_opts = CalcOptions { max_assignments: 31, ..CalcOptions::default() };
        if let Ok(fwd) = reliability_bottleneck(&net, d, &set.edges, &fwd_opts) {
            prop_assert!(fwd <= naive + 1e-10, "forward-only {} must lower-bound {}", fwd, naive);
        }
    }

    /// Exact rational agreement between naive and bottleneck (bit-for-bit).
    #[test]
    fn exact_bottleneck_matches_exact_naive(
        (net, d) in random_network(GraphKind::Directed)
    ) {
        let Ok(set) = find_bottleneck_set(&net, d.source, d.sink, 2) else {
            return Ok(());
        };
        let opts = CalcOptions {
            assignment_model: AssignmentModel::Net,
            max_assignments: 31,
            ..CalcOptions::default()
        };
        let exact_naive = reliability_naive_exact(&net, d, &opts).unwrap();
        match reliability_bottleneck_exact(&net, d, &set.edges, &opts) {
            Ok(r) => prop_assert!(r == exact_naive, "{:?} vs {:?}", r, exact_naive),
            Err(ReliabilityError::TooManyAssignments { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        }
    }
}
