//! ABL-PAR + option ablations: rayon-parallel enumeration vs serial (on a
//! single-core host this measures overhead, i.e. the shape only), the
//! perfect-link factoring shortcut, assignment pruning, and the factoring
//! algorithm vs the naive sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use flowrel_bench::{barbell_with_edges, demand_of};
use flowrel_core::{reliability_bottleneck, reliability_factoring, reliability_naive, CalcOptions};
use netgraph::{GraphKind, NetworkBuilder};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_and_options");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let (inst, cut) = barbell_with_edges(16, 2, 2, 91);
    let d = demand_of(&inst);

    group.bench_function("naive_serial", |b| {
        b.iter(|| reliability_naive(&inst.net, d, &CalcOptions::default()).unwrap())
    });
    group.bench_function("naive_parallel", |b| {
        b.iter(|| reliability_naive(&inst.net, d, &CalcOptions::parallel()).unwrap())
    });
    group.bench_function("factoring", |b| {
        b.iter(|| reliability_factoring(&inst.net, d, &CalcOptions::default()).unwrap())
    });
    group.bench_function("bottleneck_pruned", |b| {
        b.iter(|| reliability_bottleneck(&inst.net, d, &cut, &CalcOptions::default()).unwrap())
    });

    // perfect-link factoring: half the links never fail
    let mut nb = NetworkBuilder::new(GraphKind::Undirected);
    let nodes = nb.add_nodes(8);
    for i in 0..7 {
        nb.add_edge(nodes[i], nodes[i + 1], 2, 0.0).unwrap(); // perfect backbone
        nb.add_edge(nodes[i], nodes[(i + 2) % 8], 1, 0.1).unwrap();
    }
    let net2 = nb.build();
    let d2 = flowrel_core::FlowDemand::new(nodes[0], nodes[7], 1);
    group.bench_function("perfect_links_factored", |b| {
        b.iter(|| reliability_naive(&net2, d2, &CalcOptions::default()).unwrap())
    });
    let no_factor = CalcOptions {
        factor_perfect_links: false,
        ..CalcOptions::default()
    };
    group.bench_function("perfect_links_enumerated", |b| {
        b.iter(|| reliability_naive(&net2, d2, &no_factor).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
