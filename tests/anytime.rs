//! Anytime soundness: any budget cutoff yields a rigorous interval
//! `r_low <= R_exact <= r_high`, a resumed serial run is bit-identical to
//! the uninterrupted one, a resumed parallel run agrees within 1e-12, and
//! checkpoints survive the text round trip — for both the naive and the
//! bottleneck sweep paths.

use flowrel::core::{
    reliability_bottleneck, Budget, CalcOptions, CancelToken, Checkpoint, CheckpointKind,
    FlowDemand, Outcome, ReliabilityCalculator, Strategy,
};
use flowrel::netgraph::{EdgeId, GraphKind, Network, NetworkBuilder};
use rand::prelude::*;

fn random_network(rng: &mut SmallRng, kind: GraphKind) -> (Network, FlowDemand) {
    let n = rng.gen_range(3usize..6);
    let edges = rng.gen_range(4usize..9);
    let mut b = NetworkBuilder::new(kind);
    let nodes = b.add_nodes(n);
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

/// Barbell with a genuine 2-link bottleneck, so the decomposition engages.
fn barbell() -> (Network, FlowDemand) {
    let mut b = NetworkBuilder::new(GraphKind::Undirected);
    let n = b.add_nodes(8);
    for (i, j, p) in [(0, 1, 0.1), (1, 2, 0.15), (2, 0, 0.2), (0, 2, 0.12)] {
        b.add_edge(n[i], n[j], 2, p).unwrap();
    }
    b.add_edge(n[2], n[4], 1, 0.05).unwrap(); // cut link 1
    b.add_edge(n[3], n[5], 1, 0.08).unwrap(); // cut link 2
    b.add_edge(n[2], n[3], 1, 0.3).unwrap();
    for (i, j, p) in [(4, 5, 0.1), (5, 6, 0.25), (6, 7, 0.3), (7, 4, 0.18)] {
        b.add_edge(n[i], n[j], 2, p).unwrap();
    }
    (b.build(), FlowDemand::new(n[0], n[6], 1))
}

fn calc(strategy: Strategy, budget: Budget, parallel: bool) -> ReliabilityCalculator {
    ReliabilityCalculator {
        strategy,
        options: CalcOptions {
            parallel,
            budget,
            ..Default::default()
        },
    }
}

fn limit(n: u64) -> Budget {
    Budget {
        max_configs: Some(n),
        ..Default::default()
    }
}

/// Runs under a per-slice budget, checking every partial against `exact`,
/// until the computation completes; returns the final value and how many
/// partials were seen. Resumes go through the text round trip when `via_text`
/// is set, exercising the same path the CLI uses.
fn drive_to_completion(
    c: &ReliabilityCalculator,
    net: &Network,
    d: FlowDemand,
    exact: f64,
    via_text: bool,
) -> (f64, usize) {
    let mut out = c.run(net, d).expect("budgeted run");
    let mut partials = 0usize;
    loop {
        match out {
            Outcome::Complete(rep) => return (rep.reliability, partials),
            Outcome::Partial(p) => {
                assert!(
                    p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                    "[{}, {}] must bracket {exact}",
                    p.r_low,
                    p.r_high
                );
                assert!((0.0..=1.0).contains(&p.r_low));
                assert!((0.0..=1.0).contains(&p.r_high));
                assert!((0.0..=1.0).contains(&p.explored));
                partials += 1;
                assert!(partials < 100_000, "budget loop must make progress");
                let ck = if via_text {
                    Checkpoint::from_text(&p.checkpoint.to_text()).expect("text round trip")
                } else {
                    p.checkpoint
                };
                out = c.resume(net, d, &ck).expect("resume");
            }
        }
    }
}

#[test]
fn naive_budget_cutoffs_bracket_and_serial_resume_is_bit_identical() {
    let mut rng = SmallRng::seed_from_u64(0xa17_7131);
    for case in 0..12 {
        let (net, d) = random_network(&mut rng, GraphKind::Undirected);
        let exact = calc(Strategy::Naive, Budget::unlimited(), false)
            .run_complete(&net, d)
            .unwrap_or_else(|e| panic!("case {case}: {e}"))
            .reliability;
        let budgeted = calc(Strategy::Naive, limit(7), false);
        let (resumed, partials) = drive_to_completion(&budgeted, &net, d, exact, false);
        assert_eq!(
            resumed.to_bits(),
            exact.to_bits(),
            "case {case}: serial resume must be bit-identical ({resumed} vs {exact})"
        );
        // tiny instances may finish inside one slice; most must not
        if net.edge_count() > 5 {
            assert!(partials > 0, "case {case}: 7-config slices must interrupt");
        }
    }
}

#[test]
fn naive_parallel_resume_agrees_within_1e12() {
    let mut rng = SmallRng::seed_from_u64(0xa17_7132);
    for case in 0..8 {
        let (net, d) = random_network(&mut rng, GraphKind::Directed);
        let exact = calc(Strategy::Naive, Budget::unlimited(), false)
            .run_complete(&net, d)
            .unwrap_or_else(|e| panic!("case {case}: {e}"))
            .reliability;
        let budgeted = calc(Strategy::Naive, limit(64), true);
        let (resumed, _) = drive_to_completion(&budgeted, &net, d, exact, false);
        assert!(
            (resumed - exact).abs() < 1e-12,
            "case {case}: parallel resume {resumed} vs {exact}"
        );
    }
}

#[test]
fn bottleneck_budget_cutoffs_bracket_and_serial_resume_is_bit_identical() {
    let (net, d) = barbell();
    let exact = calc(Strategy::Auto, Budget::unlimited(), false)
        .run_complete(&net, d)
        .unwrap();
    assert_eq!(
        exact.algorithm, "reduce+auto:bottleneck",
        "the barbell must engage the decomposition (after reduction)"
    );
    let exact = exact.reliability;
    // every cutoff produces a valid bracketing interval
    for cut in [1u64, 3, 9, 27, 81] {
        match calc(Strategy::Auto, limit(cut), false)
            .run(&net, d)
            .unwrap()
        {
            Outcome::Partial(p) => {
                assert!(
                    p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                    "cut {cut}: [{}, {}] must bracket {exact}",
                    p.r_low,
                    p.r_high
                );
                assert!(p.r_high - p.r_low <= 1.0);
            }
            Outcome::Complete(rep) => assert_eq!(rep.reliability.to_bits(), exact.to_bits()),
        }
    }
    // sliced to completion through the text round trip: bit-identical
    let budgeted = calc(Strategy::Auto, limit(9), false);
    let (resumed, partials) = drive_to_completion(&budgeted, &net, d, exact, true);
    assert!(partials > 0, "9-config slices must interrupt the barbell");
    assert_eq!(
        resumed.to_bits(),
        exact.to_bits(),
        "serial bottleneck resume must be bit-identical ({resumed} vs {exact})"
    );
}

#[test]
fn bottleneck_parallel_resume_agrees_within_1e12() {
    let (net, d) = barbell();
    let exact = calc(Strategy::Auto, Budget::unlimited(), false)
        .run_complete(&net, d)
        .unwrap()
        .reliability;
    let budgeted = calc(Strategy::Auto, limit(50), true);
    let (resumed, _) = drive_to_completion(&budgeted, &net, d, exact, true);
    assert!(
        (resumed - exact).abs() < 1e-12,
        "parallel bottleneck resume {resumed} vs {exact}"
    );
}

#[test]
fn interval_width_shrinks_as_the_budget_grows() {
    let (net, d) = barbell();
    let mut last_width = f64::INFINITY;
    for cut in [2u64, 20, 200] {
        let (lo, hi) = calc(Strategy::Naive, limit(cut), false)
            .run(&net, d)
            .unwrap()
            .bounds();
        let width = hi - lo;
        assert!(
            width <= last_width + 1e-12,
            "more budget must not widen the interval ({width} after {last_width})"
        );
        last_width = width;
    }
    assert!(last_width < 1.0, "200 configs must pin down some mass");
}

#[test]
fn tripped_cancel_token_stops_both_paths_immediately() {
    let (net, d) = barbell();
    let exact = calc(Strategy::Naive, Budget::unlimited(), false)
        .run_complete(&net, d)
        .unwrap()
        .reliability;
    let cancel = CancelToken::new();
    cancel.trip();
    let budget = Budget {
        cancel: Some(cancel),
        ..Default::default()
    };
    for strategy in [Strategy::Naive, Strategy::Auto] {
        match calc(strategy.clone(), budget.clone(), false)
            .run(&net, d)
            .unwrap()
        {
            Outcome::Partial(p) => {
                // nothing explored, so the lower bound is vacuous; the
                // bottleneck path may still cap r_high below 1 via the cut
                // links' own failure probability
                assert_eq!(p.r_low, 0.0, "{strategy:?}");
                assert!(
                    exact <= p.r_high + 1e-12 && p.r_high <= 1.0,
                    "{strategy:?}: r_high {} must stay sound",
                    p.r_high
                );
                assert_eq!(p.explored, 0.0, "{strategy:?}");
            }
            Outcome::Complete(_) => panic!("{strategy:?}: tripped token must interrupt"),
        }
    }
}

#[test]
fn checkpoint_text_is_stable_across_round_trips() {
    let (net, d) = barbell();
    for strategy in [Strategy::Naive, Strategy::Auto] {
        let out = calc(strategy.clone(), limit(5), false)
            .run(&net, d)
            .unwrap();
        let Outcome::Partial(p) = out else {
            panic!("{strategy:?}: 5-config budget must interrupt");
        };
        let text = p.checkpoint.to_text();
        let reparsed = Checkpoint::from_text(&text).expect("parse back");
        assert_eq!(
            reparsed, p.checkpoint,
            "{strategy:?}: checkpoint must survive the text round trip exactly"
        );
        assert_eq!(
            reparsed.to_text(),
            text,
            "{strategy:?}: serialization must be canonical"
        );
    }
}

/// The double diamond the legacy fixture was written against: a directed
/// 2-link cut with two feasible assignments, (1, 1) and (2, 0).
fn double_diamond() -> (Network, FlowDemand, Vec<EdgeId>) {
    let mut b = NetworkBuilder::new(GraphKind::Directed);
    let n = b.add_nodes(6);
    b.add_edge(n[0], n[1], 2, 0.1).unwrap();
    b.add_edge(n[0], n[2], 2, 0.2).unwrap();
    let c1 = b.add_edge(n[1], n[3], 2, 0.05).unwrap();
    let c2 = b.add_edge(n[2], n[4], 1, 0.15).unwrap();
    b.add_edge(n[3], n[5], 2, 0.1).unwrap();
    b.add_edge(n[4], n[5], 2, 0.25).unwrap();
    b.add_edge(n[1], n[2], 1, 0.3).unwrap();
    (b.build(), FlowDemand::new(n[0], n[5], 2), vec![c1, c2])
}

/// A `kind bottleneck` checkpoint, written by the flat one-level engine
/// before that engine was folded into the plan interpreter (10-config
/// budget: the source side stopped at configuration 5, the sink side had
/// not started), still resumes — as the one `Cut` slot of the depth-0 plan —
/// to the uninterrupted value bit for bit, and a further interruption then
/// writes a plan checkpoint.
#[test]
fn legacy_bottleneck_checkpoint_resumes_bit_identically_on_the_plan() {
    /// The flat engine's uninterrupted value on this instance.
    const EXACT_BITS: u64 = 0x3fe8_9fbe_76c8_b43a;
    let (net, d, cut) = double_diamond();
    let exact = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
    assert_eq!(exact.to_bits(), EXACT_BITS);
    let legacy = Checkpoint::from_text(include_str!("fixtures/legacy-bottleneck.ckpt")).unwrap();
    assert!(matches!(legacy.kind, CheckpointKind::Bottleneck { .. }));

    let whole = ReliabilityCalculator::new()
        .resume(&net, d, &legacy)
        .unwrap();
    let Outcome::Complete(rep) = whole else {
        panic!("an unlimited resume must finish");
    };
    assert_eq!(rep.reliability.to_bits(), EXACT_BITS);
    assert_eq!(rep.algorithm, "bottleneck");

    let sliced = calc(Strategy::Auto, limit(2), false);
    let Outcome::Partial(p) = sliced.resume(&net, d, &legacy).unwrap() else {
        panic!("a 2-config slice must interrupt the 9 remaining configurations");
    };
    let text = p.checkpoint.to_text();
    assert!(text.lines().any(|l| l == "kind plan"), "{text}");
    let mut ck = Checkpoint::from_text(&text).unwrap();
    let r = loop {
        match sliced.resume(&net, d, &ck).unwrap() {
            Outcome::Complete(rep) => break rep.reliability,
            Outcome::Partial(p) => {
                assert!(p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12);
                ck = Checkpoint::from_text(&p.checkpoint.to_text()).unwrap();
            }
        }
    };
    assert_eq!(r.to_bits(), EXACT_BITS);
}
