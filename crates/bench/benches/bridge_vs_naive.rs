//! FIG2: Eq. 1's bridge decomposition against the naive sweep on bridge
//! chains — the `k = 1` special case of the main theorem, run as the
//! bottleneck plan restricted to single-link cuts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowrel_core::{reliability_naive, CalcOptions, FlowDemand, ReliabilityCalculator, Strategy};
use workloads::generators::bridge_chain;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_bridge_vs_naive");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let k1 = ReliabilityCalculator::new().with_strategy(Strategy::BottleneckAuto { max_k: 1 });
    for segments in [2usize, 3, 4] {
        let inst = bridge_chain(segments, 1, 19);
        let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
        let opts = CalcOptions::default();
        let m = inst.net.edge_count();
        group.bench_with_input(BenchmarkId::new("naive", m), &inst, |b, inst| {
            b.iter(|| reliability_naive(&inst.net, d, &opts).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("bridge", m), &inst, |b, inst| {
            b.iter(|| k1.run_complete(&inst.net, d).unwrap())
        });
    }
    // bridge decomposition scales far beyond the naive range
    for segments in [8usize, 12] {
        let inst = bridge_chain(segments, 1, 19);
        let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
        group.bench_with_input(
            BenchmarkId::new("bridge", inst.net.edge_count()),
            &inst,
            |b, inst| b.iter(|| k1.run_complete(&inst.net, d).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
