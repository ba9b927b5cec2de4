//! Resume refuses checkpoints whose sums or masses no run could have
//! written, and no edit of a checkpoint's text makes parsing or resuming
//! panic.
//!
//! A naive checkpoint's `feasible` and `explored` sums are probabilities of
//! configuration sets, the first a subset of the second. A side checkpoint's
//! masses split the probability of the configurations swept so far over
//! realization masks of live assignments. A checkpoint outside those
//! bounds would otherwise resume to a "certified" answer outside `[0, 1]`,
//! or to bounds that exclude the exact value. Certificates that contradict
//! each other would answer some configurations both ways. Each case here
//! must end in `CheckpointMismatch` instead.

use flowrel::core::{
    Budget, CalcOptions, Checkpoint, CheckpointKind, FlowDemand, NaiveCheckpoint, Outcome,
    PlanLeafState, ReliabilityCalculator, ReliabilityError, SideCheckpoint, SolveCert, Strategy,
};
use flowrel::netgraph::{GraphKind, Network, NetworkBuilder};
use flowrel::workloads::generators::{self, BarbellParams};
use proptest::prelude::TestCaseError;
use rand::rngs::StdRng;
use rand::Rng;

fn calc(strategy: Strategy, max_configs: Option<u64>) -> ReliabilityCalculator {
    ReliabilityCalculator::new()
        .with_strategy(strategy)
        .with_options(CalcOptions {
            budget: Budget {
                max_configs,
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        })
}

/// `flowrel generate grid 3 3` (4096 configurations).
fn grid33() -> (Network, FlowDemand) {
    let inst = generators::grid(3, 3, 1);
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    (inst.net, d)
}

/// `flowrel generate barbell 4 2 2 2 1`.
fn barbell() -> (Network, FlowDemand) {
    barbell_of(4, 2)
}

/// `flowrel generate barbell 7 4 2 2 1`: two 8-link sides.
fn wide_barbell() -> (Network, FlowDemand) {
    barbell_of(7, 4)
}

/// `flowrel generate barbell N X 2 2 1`.
fn barbell_of(cluster_nodes: usize, cluster_extra_edges: usize) -> (Network, FlowDemand) {
    let (inst, _) = generators::barbell(BarbellParams {
        cluster_nodes,
        cluster_extra_edges,
        cut_links: 2,
        cut_capacity: 2,
        demand: 2,
        seed: 1,
    });
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    (inst.net, d)
}

fn interrupted(c: &ReliabilityCalculator, net: &Network, d: FlowDemand) -> Checkpoint {
    match c.run(net, d).unwrap() {
        Outcome::Partial(p) => p.checkpoint,
        Outcome::Complete(_) => panic!("the budget must interrupt"),
    }
}

/// Resumes `ck` through the text form the CLI and the server read, with
/// and without a budget; both must refuse it.
fn assert_refused(strategy: Strategy, net: &Network, d: FlowDemand, ck: Checkpoint) {
    let ck = Checkpoint::from_text(&ck.to_text()).unwrap();
    for budget in [None, Some(100)] {
        match calc(strategy.clone(), budget).resume(net, d, &ck) {
            Err(ReliabilityError::CheckpointMismatch { .. }) => {}
            Ok(Outcome::Complete(rep)) => panic!(
                "resumed to {} ({}certified)",
                rep.reliability,
                if rep.certified { "" } else { "not " }
            ),
            Ok(Outcome::Partial(p)) => panic!("resumed to [{}, {}]", p.r_low, p.r_high),
            Err(e) => panic!("refused for another reason: {e}"),
        }
    }
}

/// A naive grid checkpoint at 200 configurations, edited by `edit`.
fn refuse_naive(edit: impl FnOnce(&mut NaiveCheckpoint)) {
    let (net, d) = grid33();
    let mut ck = interrupted(&calc(Strategy::Naive, Some(200)), &net, d);
    let CheckpointKind::Naive(n) = &mut ck.kind else {
        panic!("a naive run writes a naive checkpoint");
    };
    edit(n);
    assert_refused(Strategy::Naive, &net, d, ck);
}

/// A factoring grid checkpoint at 200 checks, edited by `edit`.
fn refuse_factoring(edit: impl FnOnce(&mut NaiveCheckpoint)) {
    let (net, d) = grid33();
    let mut ck = interrupted(&calc(Strategy::Factoring, Some(200)), &net, d);
    let CheckpointKind::Factoring(n) = &mut ck.kind else {
        panic!("a factoring run writes a factoring checkpoint");
    };
    edit(n);
    assert_refused(Strategy::Factoring, &net, d, ck);
}

/// An auto barbell checkpoint at 40 configurations — one cut leaf whose
/// source side stopped partway — with that side edited by `edit`.
fn refuse_side(edit: impl FnOnce(&mut SideCheckpoint)) {
    let (net, d) = barbell();
    let mut ck = interrupted(&calc(Strategy::Auto, Some(40)), &net, d);
    let CheckpointKind::Plan(p) = &mut ck.kind else {
        panic!("an auto run writes a plan checkpoint");
    };
    let Some(PlanLeafState::Cut { side_s, .. }) = p.leaves.first_mut() else {
        panic!("the barbell's plan is one cut leaf");
    };
    assert_eq!(side_s.live, [0, 1, 2]);
    assert!(side_s.mass[7] > 0.0 && side_s.mass[4] > 0.0);
    edit(side_s);
    assert_refused(Strategy::Auto, &net, d, ck);
}

#[test]
fn naive_sums_with_a_non_finite_part_are_refused() {
    refuse_naive(|n| n.explored = (f64::NAN, 0.0));
    refuse_naive(|n| n.feasible.1 = f64::INFINITY);
}

#[test]
fn naive_sums_outside_the_unit_interval_are_refused() {
    refuse_naive(|n| {
        n.feasible = (1.5, 0.0);
        n.explored = (1.5, 0.0);
    });
    refuse_naive(|n| {
        n.feasible = (-0.5, 0.0);
        n.explored = (-0.25, 0.0);
    });
}

/// Factoring's sums are checked as naive ones are. Unchecked, a factoring
/// checkpoint whose sum read 2.0 resumed the grid to a "certified" 1.0 (the
/// truth is 0.926872735139).
#[test]
fn factoring_sums_no_run_could_write_are_refused() {
    refuse_factoring(|n| n.feasible = (2.0, 0.0));
    refuse_factoring(|n| n.feasible = (n.explored.0 + 1e-3, n.explored.1));
    refuse_factoring(|n| n.explored = (f64::NAN, 0.0));
}

#[test]
fn a_feasible_sum_above_the_explored_sum_is_refused() {
    refuse_naive(|n| n.feasible = (n.explored.0 + 1e-3, n.explored.1));
}

#[test]
fn non_finite_or_negative_side_masses_are_refused() {
    refuse_side(|s| s.mass[3] = f64::NAN);
    refuse_side(|s| s.mass[3] = -0.01);
}

#[test]
fn side_masses_adding_up_past_one_are_refused() {
    refuse_side(|s| s.mass[7] = 2.0);
}

#[test]
fn side_mass_on_a_mask_outside_the_live_set_is_refused() {
    // assignment 2 stops being live, but masks 4..8 still carry mass
    refuse_side(|s| {
        s.live = vec![0, 1];
        s.certs.truncate(2);
    });
}

/// The support `0` claims every configuration feasible; next to a cut that
/// a solve witnessed it is a contradiction. Unchecked, the naive grid
/// resumed to a "certified" 0.999762066062 (the truth is 0.926872735139).
#[test]
fn contradictory_certificates_are_refused() {
    let forged = SolveCert::Feasible { support: 0 };
    let is_cut = |c: &SolveCert| matches!(c, SolveCert::Infeasible { .. });
    refuse_naive(|n| {
        assert!(n.certs.iter().any(is_cut));
        n.certs.push(forged);
    });
    refuse_side(|s| {
        let lane = s.certs.iter_mut().find(|l| l.iter().any(is_cut));
        lane.expect("some assignment holds a cut").push(forged);
    });
}

/// No run writes more than 128 certificates for one lane, and a longer
/// list is refused before its supports are tested against its cuts. Those
/// tests grow with the square of the list: the 10^5 lines here, which do
/// not contradict each other, would take 2.5·10^9 of them.
#[test]
fn certificate_lists_longer_than_any_run_writes_are_refused() {
    let flood = |certs: &mut Vec<SolveCert>| {
        for _ in 0..50_000 {
            certs.push(SolveCert::Feasible { support: 0xffff });
            certs.push(SolveCert::Infeasible {
                crossing: 1,
                needed: 1,
            });
        }
    };
    refuse_naive(|n| flood(&mut n.certs));
    refuse_side(|s| flood(&mut s.certs[0]));
}

/// `flowrel generate degraded-barbell 4 2 3 2 7`: multi-state cut links.
fn degraded_barbell() -> (Network, FlowDemand) {
    let (inst, _) = generators::degraded_barbell(BarbellParams {
        cluster_nodes: 4,
        cluster_extra_edges: 2,
        cut_links: 3,
        cut_capacity: 2,
        demand: 2,
        seed: 7,
    });
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    (inst.net, d)
}

/// Two chains of three triangles joined by two parallel unit links, with
/// every link failing at 0.15: its `k = 2` plan is a `DeepCut`.
fn hub_barbell() -> (Network, FlowDemand) {
    let p = 0.15;
    let mut b = NetworkBuilder::new(GraphKind::Undirected);
    let side = |b: &mut NetworkBuilder| {
        let n = b.add_nodes(9);
        for t in 0..3 {
            let base = 3 * t;
            b.add_edge(n[base], n[base + 1], 2, p).unwrap();
            b.add_edge(n[base + 1], n[base + 2], 2, p).unwrap();
            b.add_edge(n[base + 2], n[base], 2, p).unwrap();
            if t > 0 {
                b.add_edge(n[base - 1], n[base], 2, p).unwrap();
            }
        }
        (n[0], n[8])
    };
    let (s, left_end) = side(&mut b);
    let (right_start, t) = side(&mut b);
    b.add_edge(left_end, right_start, 1, p).unwrap();
    b.add_edge(left_end, right_start, 1, p).unwrap();
    (b.build(), FlowDemand::new(s, t, 1))
}

/// Every golden checkpoint (`tests/fixtures/golden/`) with the instance it
/// was written for, as `tests/golden_checkpoints.rs` builds them. Resume
/// takes the algorithm and the planning knobs from the checkpoint.
fn golden_fixtures() -> Vec<(&'static str, String, Network, FlowDemand)> {
    let read = |name: &str| {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/golden")
            .join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let named = [
        ("naive-grid33-200.ckpt", grid33()),
        ("naive-grid33-chain-1.ckpt", grid33()),
        ("naive-grid33-chain-2.ckpt", grid33()),
        ("naive-grid33-chain-3.ckpt", grid33()),
        ("naive-grid33-chain-4.ckpt", grid33()),
        ("naive-degraded-barbell-200.ckpt", degraded_barbell()),
        ("auto-barbell-3.ckpt", barbell()),
        ("auto-barbell-40.ckpt", barbell()),
        ("auto-barbell-flat-40.ckpt", barbell()),
        ("deepcut-hub-barbell-2.ckpt", hub_barbell()),
        ("auto-barbell7-300.ckpt", wide_barbell()),
        ("factoring-grid33-200.ckpt", grid33()),
    ];
    named
        .into_iter()
        .map(|(name, (net, d))| (name, read(name), net, d))
        .collect()
}

/// One random edit of a checkpoint's text: a hex digit flipped, a number
/// set to 0 or `u64::MAX`, a line dropped, duplicated or swapped with
/// another, or the text cut short. Returns the edited text and what was
/// done, for the failure message.
fn mutate(text: &str, rng: &mut StdRng) -> (String, String) {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let n = lines.len();
    let at = rng.gen_range(0..n);
    let what = match rng.gen_range(0..6u32) {
        0 => {
            let digits: Vec<usize> = lines[at]
                .char_indices()
                .filter(|&(_, c)| c.is_ascii_hexdigit())
                .map(|(i, _)| i)
                .collect();
            if digits.is_empty() {
                return (text.to_string(), format!("nothing to flip on line {at}"));
            }
            let i = digits[rng.gen_range(0..digits.len())];
            let old = lines[at].as_bytes()[i] as char;
            let new = loop {
                let c = char::from_digit(rng.gen_range(0..16u32), 16).unwrap_or('0');
                if c != old {
                    break c;
                }
            };
            lines[at].replace_range(i..i + 1, &new.to_string());
            format!("line {at}: hex digit {old} -> {new}")
        }
        1 => {
            let mut words: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
            let numeric: Vec<usize> = (0..words.len())
                .filter(|&w| words[w].chars().all(|c| c.is_ascii_hexdigit()))
                .collect();
            if numeric.is_empty() {
                return (text.to_string(), format!("no number on line {at}"));
            }
            let w = numeric[rng.gen_range(0..numeric.len())];
            let value = ["0", "ffffffffffffffff", "18446744073709551615"][rng.gen_range(0..3usize)];
            words[w] = value.to_string();
            lines[at] = words.join(" ");
            format!("line {at}: word {w} -> {value}")
        }
        2 => {
            lines.remove(at);
            format!("line {at} dropped")
        }
        3 => {
            lines.insert(at, lines[at].clone());
            format!("line {at} duplicated")
        }
        4 => {
            let other = rng.gen_range(0..n);
            lines.swap(at, other);
            format!("lines {at} and {other} swapped")
        }
        _ => {
            let cut = rng.gen_range(0..text.len());
            return (text[..cut].to_string(), format!("cut at byte {cut}"));
        }
    };
    let mut out = lines.join("\n");
    out.push('\n');
    (out, what)
}

/// Parses `text` and resumes it on `(net, d)` under a 256-configuration
/// budget; a panic anywhere on the way is the failure.
fn parse_and_resume(text: &str, net: &Network, d: FlowDemand) -> Result<(), String> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let Ok(ck) = Checkpoint::from_text(text) else {
            return;
        };
        let calc = ReliabilityCalculator::new().with_options(CalcOptions {
            parallel: false,
            budget: Budget {
                max_configs: Some(256),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        });
        let _ = calc.resume(net, d, &ck);
    }));
    caught.map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "a panic".to_string())
    })
}

/// Randomly edited golden checkpoints parse and resume to a value or a
/// typed error, never a panic.
#[test]
fn mutated_golden_checkpoints_never_panic() {
    let fixtures = golden_fixtures();
    proptest::run_cases("mutated_golden_checkpoints", 600, |rng| {
        let (name, text, net, d) = &fixtures[rng.gen_range(0..fixtures.len())];
        let (edited, what) = mutate(text, rng);
        parse_and_resume(&edited, net, *d)
            .map_err(|p| TestCaseError::fail(format!("{name}, {what}: {p}\n{edited}")))
    });
}
