//! ABL-MEM: the paper-faithful `2^{|E_c|}` realization array (Section III-C)
//! vs the streamed spectrum. Same max-flow work; the array additionally
//! materializes one mask per configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowrel_bench::{barbell_with_edges, demand_of};
use flowrel_core::{
    decompose, enumerate_assignments, validate_bottleneck_set, CalcOptions, RealizationSpectrum,
    RealizationTable, SideOracle,
};
use maxflow::SolverKind;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_vs_spectrum");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for edges in [16usize, 20, 24] {
        let (inst, cut) = barbell_with_edges(edges, 2, 2, 47);
        let d = demand_of(&inst);
        let set = validate_bottleneck_set(&inst.net, d.source, d.sink, &cut).unwrap();
        let dec = decompose(&inst.net, &d, &set);
        let ranges: Vec<(i64, i64)> = cut
            .iter()
            .map(|&e| {
                (
                    0i64,
                    (inst.net.edge(e).capacity as i64).min(d.demand as i64),
                )
            })
            .collect();
        let assignments = enumerate_assignments(d.demand, &ranges);
        let weights = flowrel_core::edge_weights(&dec.side_s.net);
        let m = dec.side_s.net.edge_count();
        // the table's sweep: serial, no certificates, cold solves
        let cold = CalcOptions {
            certificate_cache: false,
            incremental: false,
            ..CalcOptions::default()
        };

        group.bench_with_input(BenchmarkId::new("table", m), &m, |b, _| {
            b.iter(|| {
                let mut o = SideOracle::new(&dec.side_s, &assignments, SolverKind::Dinic).unwrap();
                RealizationTable::build(&mut o, 30, 20).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("spectrum", m), &m, |b, _| {
            b.iter(|| {
                RealizationSpectrum::sweep(&dec.side_s, &assignments, &weights, &cold).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
