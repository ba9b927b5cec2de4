//! A cached certificate's verdict always equals the solver's.
//!
//! Random configurations stream through one small [`CertCache`]; every miss
//! runs a solver and records the certificate its solve carries, and every hit
//! is checked against a fresh Dinic solve of the same configuration. The
//! multi-terminal lowering attaches unfailable super-terminal arcs, so its
//! cut certificates carry a nonzero `fixed` capacity.

use maxflow::{build_flow, build_flow_multi, CertCache, NetworkFlow, SolverKind};
use netgraph::{EdgeMask, GraphKind, Network, NetworkBuilder, NodeId};
use proptest::prelude::*;

/// Directed or undirected networks on 4–7 nodes with 1–12 links of capacity
/// 1–3.
fn random_network() -> impl Strategy<Value = Network> {
    (
        any::<bool>(),
        4usize..8,
        proptest::collection::vec((0usize..8, 0usize..8, 1u64..=3), 1..13),
    )
        .prop_map(|(directed, n, raw)| {
            let kind = if directed {
                GraphKind::Directed
            } else {
                GraphKind::Undirected
            };
            let mut b = NetworkBuilder::new(kind);
            let nodes = b.add_nodes(n);
            for (u, v, c) in raw {
                b.add_edge(nodes[u % n], nodes[v % n], c, 0.1).unwrap();
            }
            b.build()
        })
}

fn solve(nf: &mut NetworkFlow, solver: SolverKind, bits: u64, required: u64) -> bool {
    nf.apply_mask(EdgeMask::from_bits(bits, nf.edge_arcs.len()));
    solver.solve(&mut nf.graph, nf.source, nf.sink, required) >= required
}

/// Streams `configs` through one `CertCache::new(4)`, solving misses with
/// `solver` on `nf`, and checks every verdict against Dinic on `truth`.
fn check_stream(
    net: &Network,
    mut nf: NetworkFlow,
    solver: SolverKind,
    required: u64,
    configs: &[u64],
) -> Result<(), TestCaseError> {
    let mut truth = nf.clone();
    let caps: Vec<u64> = net.edges().iter().map(|e| e.capacity).collect();
    let live = (1u64 << caps.len()) - 1;
    let mut cache = CertCache::new(4);
    for &raw in configs {
        let bits = raw & live;
        let expected = solve(&mut truth, SolverKind::Dinic, bits, required);
        match cache.classify(bits, &caps) {
            Some(verdict) => prop_assert_eq!(verdict, expected, "cached verdict on {:b}", bits),
            None => {
                let ok = solve(&mut nf, solver, bits, required);
                prop_assert_eq!(ok, expected, "{:?} on {:b}", solver, bits);
                cache.record(nf.certificate(ok, required));
            }
        }
    }
    Ok(())
}

fn solver_kind() -> impl Strategy<Value = SolverKind> {
    (0..SolverKind::ALL.len()).prop_map(|i| SolverKind::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cached_verdicts_match_the_solver_on_s_t_lowerings(
        net in random_network(),
        solver in solver_kind(),
        required in 1u64..=4,
        configs in proptest::collection::vec(any::<u64>(), 200..201),
    ) {
        let t = NodeId(net.node_count() as u32 - 1);
        let nf = build_flow(&net, NodeId(0), t);
        check_stream(&net, nf, solver, required, &configs)?;
    }

    #[test]
    fn cached_verdicts_match_the_solver_on_multi_terminal_lowerings(
        net in random_network(),
        solver in solver_kind(),
        supplies in (1u64..=3, 1u64..=3),
        demands in (1u64..=3, 1u64..=3),
        required in 1u64..=4,
        configs in proptest::collection::vec(any::<u64>(), 200..201),
    ) {
        let n = net.node_count() as u32;
        let nf = build_flow_multi(
            &net,
            &[(NodeId(0), supplies.0), (NodeId(1), supplies.1)],
            &[(NodeId(n - 1), demands.0), (NodeId(n - 2), demands.1)],
        );
        check_stream(&net, nf, solver, required, &configs)?;
    }
}
