//! ABL-MC: Monte-Carlo sampling vs the exact algorithms — the practical
//! trade-off the paper's exponential-but-exact approach competes against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowrel_bench::{barbell_with_edges, demand_of};
use flowrel_core::{reliability_bottleneck, reliability_factoring, CalcOptions};
use montecarlo::{engine, EstimatorKind, McBudget, McSettings, StopTarget};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("montecarlo_vs_exact");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let (inst, cut) = barbell_with_edges(18, 2, 2, 13);
    let d = demand_of(&inst);
    let opts = CalcOptions::default();

    group.bench_function("exact_bottleneck", |b| {
        b.iter(|| reliability_bottleneck(&inst.net, d, &cut, &opts).unwrap())
    });
    group.bench_function("exact_factoring", |b| {
        b.iter(|| reliability_factoring(&inst.net, d, &opts).unwrap())
    });
    for samples in [1_000u64, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("monte_carlo", samples),
            &samples,
            |b, &samples| {
                let settings = McSettings {
                    seed: 3,
                    estimator: EstimatorKind::Crude,
                    target: StopTarget {
                        max_samples: samples,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let budget = McBudget::unlimited();
                b.iter(|| {
                    engine::run(
                        &inst.net, d.source, d.sink, d.demand, &settings, &budget, false,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
