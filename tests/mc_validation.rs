//! Validation of the Monte-Carlo estimation engine against the exact
//! algorithms: rare-event honesty, estimator coverage on enumerable
//! instances, serial/parallel/resumed bit-identity, and the end-to-end
//! `Strategy::MonteCarlo` checkpoint round trip.

use flowrel::core::{
    reliability_naive, Budget, CalcOptions, Checkpoint, FlowDemand, Outcome, ReliabilityCalculator,
    Strategy,
};
use flowrel::montecarlo::{engine, EstimatorKind, McBudget, McOutcome, McSettings, StopTarget};
use flowrel::netgraph::{EdgeId, GraphKind, Network, NetworkBuilder};

/// Two parallel links with `p = 1e-4`: `R = 1 - 1e-8`, the rare-event
/// instance from the degenerate-interval regression.
fn rare_two_links() -> (Network, FlowDemand) {
    let mut b = NetworkBuilder::new(GraphKind::Directed);
    let s = b.add_node();
    let t = b.add_node();
    b.add_edge(s, t, 1, 1e-4).unwrap();
    b.add_edge(s, t, 1, 1e-4).unwrap();
    (b.build(), FlowDemand::new(s, t, 1))
}

/// A 10-link instance small enough for exact enumeration but non-trivial
/// for every estimator: two triangles joined by a 2-link bottleneck.
fn small_barbell() -> (Network, FlowDemand, Vec<EdgeId>) {
    let mut b = NetworkBuilder::new(GraphKind::Undirected);
    let n = b.add_nodes(6);
    b.add_edge(n[0], n[1], 1, 0.15).unwrap();
    b.add_edge(n[1], n[2], 1, 0.1).unwrap();
    b.add_edge(n[2], n[0], 1, 0.2).unwrap();
    let c0 = b.add_edge(n[2], n[3], 1, 0.1).unwrap();
    let c1 = b.add_edge(n[2], n[3], 1, 0.15).unwrap();
    b.add_edge(n[3], n[4], 1, 0.1).unwrap();
    b.add_edge(n[4], n[5], 1, 0.2).unwrap();
    b.add_edge(n[5], n[3], 1, 0.1).unwrap();
    (b.build(), FlowDemand::new(n[0], n[5], 1), vec![c0, c1])
}

/// Regression for the degenerate stopping bug: on a `R = 1 - 1e-8`
/// instance, a stopping rule on the normal-approximation half-width stops
/// after its first all-successes batch with `std_error == 0` and a
/// zero-width interval excluding the true value. The engine's `ci_half`
/// target uses the Wilson half-width, which never reaches zero.
#[test]
fn rare_event_interval_is_never_degenerate() {
    let (net, d) = rare_two_links();
    let exact = 1.0 - 1e-8;
    let settings = McSettings {
        seed: 3,
        estimator: EstimatorKind::Crude,
        target: StopTarget {
            ci_half: Some(1e-4),
            max_samples: 200_000,
            ..Default::default()
        },
        batch: 4096,
        ..Default::default()
    };
    let out = engine::run(
        &net,
        d.source,
        d.sink,
        d.demand,
        &settings,
        &McBudget::unlimited(),
        false,
    )
    .unwrap();
    let est = out.report();
    assert!(
        est.samples > 4096,
        "an all-successes first batch must not satisfy the stopping rule \
         (stopped at {} samples)",
        est.samples
    );
    let (lo, hi) = (est.ci_low, est.ci_high);
    assert!(hi > lo, "interval must have nonzero width: [{lo}, {hi}]");
    assert!(
        lo <= exact && exact <= hi,
        "[{lo}, {hi}] must cover {exact} even when every sample succeeded"
    );
}

/// Every estimator covers the exact (naively enumerated) reliability on a
/// <= 12-link instance, across several seeds.
#[test]
fn estimators_cover_naive_enumeration() {
    let (net, d, cut) = small_barbell();
    let exact = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
    for seed in [1u64, 7, 42] {
        for (estimator, strata) in [
            (EstimatorKind::Crude, Vec::new()),
            (EstimatorKind::Dagger, cut.clone()),
            (EstimatorKind::Permutation, Vec::new()),
        ] {
            let settings = McSettings {
                seed,
                estimator,
                strata,
                target: StopTarget {
                    max_samples: 30_000,
                    ..Default::default()
                },
                ..Default::default()
            };
            let out = engine::run(
                &net,
                d.source,
                d.sink,
                d.demand,
                &settings,
                &McBudget::unlimited(),
                false,
            )
            .unwrap();
            let r = out.report();
            // 4-sigma band: deterministic per seed, and a 95% interval is
            // allowed to miss ~1 seed-estimator pair in 20.
            assert!(
                (r.mean - exact).abs() <= 4.0 * r.std_error.max(1e-9),
                "{estimator:?} seed {seed}: {} vs exact {exact} (se {})",
                r.mean,
                r.std_error
            );
        }
    }
}

/// For a fixed seed, the serial run, the parallel run, and an
/// interrupt-then-resume run all produce the identical report.
#[test]
fn serial_parallel_and_resumed_runs_are_bit_identical() {
    let (net, d, cut) = small_barbell();
    for (estimator, strata) in [
        (EstimatorKind::Crude, Vec::new()),
        (EstimatorKind::Dagger, cut.clone()),
        (EstimatorKind::Permutation, Vec::new()),
    ] {
        let settings = McSettings {
            seed: 5,
            estimator,
            strata,
            target: StopTarget {
                max_samples: 20_000,
                ..Default::default()
            },
            batch: 1024,
            ..Default::default()
        };
        let run = |parallel: bool, budget: &McBudget| {
            engine::run(
                &net, d.source, d.sink, d.demand, &settings, budget, parallel,
            )
            .unwrap()
        };
        let McOutcome::Done(serial) = run(false, &McBudget::unlimited()) else {
            panic!("unlimited serial run must finish");
        };
        let McOutcome::Done(parallel) = run(true, &McBudget::unlimited()) else {
            panic!("unlimited parallel run must finish");
        };
        assert_eq!(
            serial, parallel,
            "{estimator:?}: parallel must match serial"
        );
        let interrupted = run(
            false,
            &McBudget {
                max_samples: Some(6_000),
                ..McBudget::unlimited()
            },
        );
        let McOutcome::Interrupted { checkpoint, .. } = interrupted else {
            panic!("a 6k-sample allowance must interrupt a 20k-sample run");
        };
        let resumed = engine::resume(
            &net,
            d.source,
            d.sink,
            d.demand,
            &checkpoint,
            &McBudget::unlimited(),
            true,
        )
        .unwrap();
        let McOutcome::Done(resumed) = resumed else {
            panic!("unlimited resume must finish");
        };
        assert_eq!(
            serial, resumed,
            "{estimator:?}: resume must reproduce the uninterrupted run"
        );
    }
}

/// End to end through the facade: a budgeted `Strategy::MonteCarlo` run
/// yields a Partial whose checkpoint survives the text round trip and
/// resumes to the bit-identical uninterrupted answer.
#[test]
fn strategy_montecarlo_checkpoint_text_round_trip() {
    let (net, d, _) = small_barbell();
    let settings = McSettings {
        seed: 13,
        estimator: EstimatorKind::Auto,
        target: StopTarget {
            max_samples: 25_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let full = ReliabilityCalculator::new()
        .with_strategy(Strategy::MonteCarlo(settings.clone()))
        .run_complete(&net, d)
        .unwrap();
    assert_eq!(
        full.algorithm, "reduce+montecarlo:dagger",
        "auto must condition on the barbell bottleneck (after reduction)"
    );
    let budgeted = ReliabilityCalculator::new()
        .with_strategy(Strategy::MonteCarlo(settings))
        .with_options(CalcOptions {
            budget: Budget {
                max_configs: Some(8_000),
                ..Default::default()
            },
            ..Default::default()
        });
    let Outcome::Partial(partial) = budgeted.run(&net, d).unwrap() else {
        panic!("an 8k-sample allowance must interrupt a 25k-sample run");
    };
    let mc = partial.mc.as_ref().expect("partial MC report");
    assert!(mc.ci_low < mc.ci_high, "partial interval must be honest");
    let text = partial.checkpoint.to_text();
    let parsed = Checkpoint::from_text(&text).unwrap();
    let resumed = ReliabilityCalculator::new()
        .with_strategy(Strategy::MonteCarlo(McSettings::default()))
        .resume(&net, d, &parsed)
        .unwrap();
    let Outcome::Complete(rep) = resumed else {
        panic!("unlimited resume must finish");
    };
    assert_eq!(rep.mc.unwrap(), full.mc.unwrap());
    assert_eq!(rep.reliability, full.reliability);
}

/// The MC path honors wall-clock deadlines: a zero deadline interrupts
/// before any sampling, with an honest vacuous interval.
#[test]
fn zero_deadline_interrupts_before_sampling() {
    let (net, d, _) = small_barbell();
    let calc = ReliabilityCalculator::new()
        .with_strategy(Strategy::MonteCarlo(McSettings {
            estimator: EstimatorKind::Crude,
            ..Default::default()
        }))
        .with_options(CalcOptions {
            budget: Budget {
                time_limit: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
            ..Default::default()
        });
    let Outcome::Partial(p) = calc.run(&net, d).unwrap() else {
        panic!("a zero deadline must interrupt");
    };
    let mc = p.mc.expect("MC report");
    assert_eq!(mc.samples, 0);
    assert_eq!((mc.ci_low, mc.ci_high), (0.0, 1.0));
}
