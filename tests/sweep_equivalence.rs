//! Sweep-engine equivalence: the serial, parallel, and certificate-cached
//! configuration sweeps must compute the same reliabilities (within 1e-12 in
//! `f64`) on random small graphs, for both the naive and the bottleneck
//! paths, and certificate hits must never move realization-spectrum mass.

use flowrel::core::assign::crossing_ranges;
use flowrel::core::{
    decompose, enumerate_assignments, find_bottleneck_set, reliability_bottleneck,
    reliability_naive_with_stats, CalcOptions, FlowDemand, RealizationSpectrum, ReliabilityError,
};
use flowrel::netgraph::{GraphKind, Network, NetworkBuilder};
use rand::prelude::*;

fn random_network(rng: &mut SmallRng, kind: GraphKind) -> (Network, FlowDemand) {
    let n = rng.gen_range(3usize..6);
    let edges = rng.gen_range(5usize..11);
    let mut b = NetworkBuilder::new(kind);
    let nodes = b.add_nodes(n);
    // a spine guarantees s and t are connected in most draws
    for w in nodes.windows(2) {
        let p = rng.gen_range(1u32..16) as f64 / 32.0;
        b.add_edge(w[0], w[1], rng.gen_range(1u64..3), p).unwrap();
    }
    for _ in 0..edges {
        let u = rng.gen_range(0usize..n);
        let v = rng.gen_range(0usize..n);
        let p = rng.gen_range(0u32..24) as f64 / 32.0;
        b.add_edge(nodes[u], nodes[v], rng.gen_range(1u64..4), p)
            .unwrap();
    }
    let demand = rng.gen_range(1u64..3);
    (b.build(), FlowDemand::new(nodes[0], nodes[n - 1], demand))
}

fn naive_opts(parallel: bool, certs: bool) -> CalcOptions {
    CalcOptions {
        parallel,
        certificate_cache: certs,
        ..Default::default()
    }
}

#[test]
fn naive_path_serial_parallel_and_cached_agree() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0001);
    let mut total_hits = 0u64;
    for case in 0..30 {
        let (net, d) = random_network(&mut rng, GraphKind::Undirected);
        let (base, s_base) = reliability_naive_with_stats(&net, d, &naive_opts(false, false))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let (cached, s_cached) =
            reliability_naive_with_stats(&net, d, &naive_opts(false, true)).unwrap();
        let (par, _) = reliability_naive_with_stats(&net, d, &naive_opts(true, false)).unwrap();
        let (par_cached, _) =
            reliability_naive_with_stats(&net, d, &naive_opts(true, true)).unwrap();
        assert_eq!(
            base, cached,
            "case {case}: serial cert run must be bit-identical"
        );
        assert!(
            (base - par).abs() < 1e-12,
            "case {case}: {base} vs parallel {par}"
        );
        assert!(
            (base - par_cached).abs() < 1e-12,
            "case {case}: {base} vs {par_cached}"
        );
        assert_eq!(s_cached.configs, s_base.configs, "case {case}");
        assert_eq!(
            s_cached.solver_calls + s_cached.solver_calls_avoided(),
            s_cached.configs,
            "case {case}: every config is either solved or certified"
        );
        total_hits += s_cached.solver_calls_avoided();
    }
    assert!(
        total_hits > 0,
        "certificates must fire on at least one random graph"
    );
}

#[test]
fn bottleneck_path_serial_parallel_and_cached_agree() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0002);
    let mut checked = 0usize;
    for case in 0..40 {
        let (net, d) = random_network(&mut rng, GraphKind::Undirected);
        let Ok(set) = find_bottleneck_set(&net, d.source, d.sink, 2) else {
            continue;
        };
        let base = match reliability_bottleneck(&net, d, &set.edges, &naive_opts(false, false)) {
            Ok(r) => r,
            Err(ReliabilityError::TooManyAssignments { .. }) => continue,
            Err(e) => panic!("case {case}: {e}"),
        };
        let cached = reliability_bottleneck(&net, d, &set.edges, &naive_opts(false, true)).unwrap();
        let par = reliability_bottleneck(&net, d, &set.edges, &naive_opts(true, true)).unwrap();
        assert_eq!(
            base, cached,
            "case {case}: serial cert run must be bit-identical"
        );
        assert!(
            (base - par).abs() < 1e-12,
            "case {case}: {base} vs parallel {par}"
        );
        checked += 1;
    }
    assert!(
        checked >= 5,
        "too few draws had a bottleneck set ({checked})"
    );
}

#[test]
fn certificate_hits_never_change_spectrum_masses() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0003);
    let mut hits = 0u64;
    let mut checked = 0usize;
    for _ in 0..40 {
        let (net, d) = random_network(&mut rng, GraphKind::Undirected);
        let Ok(set) = find_bottleneck_set(&net, d.source, d.sink, 2) else {
            continue;
        };
        let ranges = crossing_ranges(
            &net,
            &set.edges,
            &set.forward_oriented,
            d.demand,
            CalcOptions::default().assignment_model,
        );
        let assignments = enumerate_assignments(d.demand, &ranges);
        if assignments.is_empty() || assignments.len() > 20 {
            continue;
        }
        let dec = decompose(&net, &d, &set);
        let serial = |certificate_cache| CalcOptions {
            certificate_cache,
            incremental: false,
            ..CalcOptions::default()
        };
        for side in [&dec.side_s, &dec.side_t] {
            let weights = flowrel::core::edge_weights(&side.net);
            let (plain, _) =
                RealizationSpectrum::sweep(side, &assignments, &weights, &serial(false)).unwrap();
            let (cached, stats) =
                RealizationSpectrum::sweep(side, &assignments, &weights, &serial(true)).unwrap();
            assert_eq!(plain.mass, cached.mass, "cache hits must not move any mass");
            hits += stats.solver_calls_avoided();
            checked += 1;
        }
    }
    assert!(checked >= 10, "too few sides checked ({checked})");
    assert!(
        hits > 0,
        "certificates must fire on at least one side sweep"
    );
}
