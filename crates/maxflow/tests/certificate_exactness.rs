//! A cached certificate's verdict always equals the solver's.
//!
//! Random configurations stream through one small [`CertCache`]; every miss
//! runs a solver and records the certificate its solve carries, and every hit
//! is checked against a fresh Dinic solve of the same configuration. The
//! multi-terminal lowering attaches unfailable super-terminal arcs, so its
//! cut certificates carry a nonzero `fixed` capacity. The certificates the
//! solvers make never contradict each other, and a block run leaves a cache
//! exactly where the same number of `classify` calls does.

use maxflow::{
    build_flow, build_flow_multi, contradiction, Block, BlockOrder, CertCache, NetworkFlow,
    SolverKind,
};
use netgraph::{EdgeMask, GraphKind, Network, NetworkBuilder, NodeId};
use proptest::prelude::*;

/// Directed or undirected networks on 4–7 nodes with 1–12 links of capacity
/// 1–3.
fn random_network() -> impl Strategy<Value = Network> {
    network_with(1..13)
}

/// As [`random_network`], with a number of links drawn from `links`.
fn network_with(links: std::ops::Range<usize>) -> impl Strategy<Value = Network> {
    (
        any::<bool>(),
        4usize..8,
        proptest::collection::vec((0usize..8, 0usize..8, 1u64..=3), links),
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
/// `solver` on `nf`, and checks every verdict against Dinic on `truth`, and
/// that no two certificates the solver made contradict each other.
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
    let mut cache = CertCache::new(4, &caps);
    let mut made = Vec::new();
    for &raw in configs {
        let bits = raw & live;
        let expected = solve(&mut truth, SolverKind::Dinic, bits, required);
        match cache.classify(bits) {
            Some(verdict) => prop_assert_eq!(verdict, expected, "cached verdict on {:b}", bits),
            None => {
                let ok = solve(&mut nf, solver, bits, required);
                prop_assert_eq!(ok, expected, "{:?} on {:b}", solver, bits);
                let cert = nf.certificate(ok, required);
                cache.record(cert);
                made.push(cert);
            }
        }
    }
    prop_assert_eq!(contradiction(&made, &caps), None);
    Ok(())
}

/// One visit of a sweep to a block: the palette index of the block, and the
/// stretch `start..start + len` (clipped to the block) it walks.
type Visit = (usize, u32, u32);

/// Builds three blocks over `m ≥ 6` links from `seeds` (base links, a
/// shuffle of the links and an order each), then walks `visits` the way a
/// sweep does: `run` answers each stretch on one cache, one
/// `classify` per configuration answers it on a copy, and a miss is solved
/// and recorded in both. Verdicts, `export()` and the kind flag must agree
/// after every step, and every verdict must be the solver's.
fn check_runs(
    net: &Network,
    mut nf: NetworkFlow,
    required: u64,
    warm: &[u64],
    seeds: &[(u64, u64, u8)],
    visits: &[Visit],
) -> Result<(), TestCaseError> {
    let caps: Vec<u64> = net.edges().iter().map(|e| e.capacity).collect();
    let m = caps.len();
    let live = (1u64 << m) - 1;
    let mut runs = CertCache::new(4, &caps);
    for &raw in warm {
        if runs.classify(raw & live).is_none() {
            let ok = solve(&mut nf, SolverKind::Dinic, raw & live, required);
            runs.record(nf.certificate(ok, required));
        }
    }
    let mut singles = runs.clone();
    let blocks: Vec<Block> = seeds
        .iter()
        .enumerate()
        .map(|(id, &(base, shuffle, order))| {
            let mut links: Vec<usize> = (0..m).collect();
            let mut x = shuffle | 1;
            for i in (1..m).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                links.swap(i, (x % (i as u64 + 1)) as usize);
            }
            let order = match order {
                0 => BlockOrder::Counting,
                o => BlockOrder::Gray { parity: o == 2 },
            };
            let low = std::array::from_fn(|j| links[j] as u8);
            Block::new(id as u64, base & live, low, order)
        })
        .collect();
    for &(b, start, len) in visits {
        let block = &blocks[b % blocks.len()];
        let end = (start + len).min(64);
        let mut q = start;
        while q < end {
            let bits = block.config(q);
            match runs.run(block, q, end - q, bits) {
                Some((k, feasible)) => {
                    prop_assert!(k >= 1 && q + k <= end);
                    for j in 0..k {
                        let bits = block.config(q + j);
                        let verdict = feasible >> j & 1 == 1;
                        prop_assert_eq!(singles.classify(bits), Some(verdict), "{:b}", bits);
                        let truth = solve(&mut nf, SolverKind::Dinic, bits, required);
                        prop_assert_eq!(verdict, truth, "run verdict on {:b}", bits);
                    }
                    q += k;
                }
                None => {
                    prop_assert_eq!(singles.classify(bits), None, "{:b}", bits);
                    let ok = solve(&mut nf, SolverKind::Dinic, bits, required);
                    let cert = nf.certificate(ok, required);
                    runs.record(cert);
                    singles.record(cert);
                    q += 1;
                }
            }
            prop_assert_eq!(runs.export(), singles.export());
            prop_assert_eq!(runs.infeasible_first(), singles.infeasible_first());
        }
    }
    prop_assert_eq!(contradiction(&runs.export(), &caps), None);
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

    #[test]
    fn block_runs_leave_the_cache_where_single_classifies_do(
        net in network_with(6..13),
        multi in any::<bool>(),
        required in 1u64..=4,
        warm in proptest::collection::vec(any::<u64>(), 0..40),
        seeds in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u8..3), 3..4),
        visits in proptest::collection::vec((0usize..3, 0u32..64, 1u32..65), 1..12),
    ) {
        let n = net.node_count() as u32;
        let nf = if multi {
            build_flow_multi(
                &net,
                &[(NodeId(0), 2), (NodeId(1), 1)],
                &[(NodeId(n - 1), 2), (NodeId(n - 2), 1)],
            )
        } else {
            build_flow(&net, NodeId(0), NodeId(n - 1))
        };
        check_runs(&net, nf, required, &warm, &seeds, &visits)?;
    }
}
