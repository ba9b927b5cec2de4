//! Golden serial checkpoints: the exact text that budgeted serial runs write,
//! and the exact bits their resumed runs finish at, pinned by fixtures under
//! `tests/fixtures/golden/`.
//!
//! Serial resume is bit-identical by contract, so every byte of a serial
//! checkpoint — cursor ranges, Neumaier parts, masses, exported
//! certificates — is a function of the instance and the budget alone. A
//! change to the sweep engine that moves any of them, even without moving a
//! final answer, shows up here. Each case also resumes the committed fixture
//! (not the freshly written text) to completion, so checkpoints written by
//! earlier builds keep resuming to the same bits.

use std::path::PathBuf;

use flowrel::core::{
    find_bottleneck_set, instance_fingerprint, Budget, CalcOptions, Checkpoint, CheckpointKind,
    DecompositionPlan, FlowDemand, Outcome, PlanNode, PlanOutcome, ReliabilityCalculator,
    ReliabilityError, Strategy,
};
use flowrel::netgraph::{GraphKind, Network, NetworkBuilder};
use flowrel::workloads::generators::{self, BarbellParams, Instance};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Requires `ck` to serialize to the fixture `name` byte for byte, and
/// returns the fixture parsed back.
fn assert_golden(name: &str, ck: &Checkpoint) -> Checkpoint {
    let text = ck.to_text();
    let golden = fixture(name);
    assert!(
        text == golden,
        "{name}: checkpoint text moved\n--- written ---\n{text}--- golden ---\n{golden}"
    );
    Checkpoint::from_text(&golden).unwrap()
}

fn demand_of(inst: &Instance) -> FlowDemand {
    FlowDemand::new(inst.source, inst.sink, inst.demand)
}

/// `flowrel generate grid 3 3`.
fn grid33() -> (Network, FlowDemand) {
    let inst = generators::grid(3, 3, 1);
    let d = demand_of(&inst);
    (inst.net, d)
}

fn barbell_params(cut_links: usize, seed: u64) -> BarbellParams {
    BarbellParams {
        cluster_nodes: 4,
        cluster_extra_edges: 2,
        cut_links,
        cut_capacity: 2,
        demand: 2,
        seed,
    }
}

/// `flowrel generate barbell 4 2 2 2 1`.
fn barbell() -> (Network, FlowDemand) {
    let (inst, _) = generators::barbell(barbell_params(2, 1));
    let d = demand_of(&inst);
    (inst.net, d)
}

/// `flowrel generate barbell 7 4 2 2 1`: the auto cut leaves 8 links on
/// either side, more than one leaf block, so both sides walk their links
/// nearest first and close subcubes.
fn wide_barbell() -> (Network, FlowDemand) {
    let (inst, _) = generators::barbell(BarbellParams {
        cluster_nodes: 7,
        cluster_extra_edges: 4,
        ..barbell_params(2, 1)
    });
    let d = demand_of(&inst);
    (inst.net, d)
}

/// `flowrel generate degraded-barbell 4 2 3 2 7`: multi-state cut links.
fn degraded_barbell() -> (Network, FlowDemand) {
    let (inst, _) = generators::degraded_barbell(barbell_params(3, 7));
    let d = demand_of(&inst);
    (inst.net, d)
}

/// Two chains of three triangles joined by two parallel unit links: at
/// `k = 2` the planner splits on the pair and decomposes both sides, so the
/// root is a `DeepCut`.
fn hub_barbell(p: f64) -> (Network, FlowDemand) {
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

fn serial(
    strategy: Strategy,
    max_configs: Option<u64>,
    max_depth: Option<usize>,
) -> ReliabilityCalculator {
    let defaults = CalcOptions::default();
    ReliabilityCalculator::new()
        .with_strategy(strategy)
        .with_options(CalcOptions {
            parallel: false,
            max_depth: max_depth.unwrap_or(defaults.max_depth),
            budget: Budget {
                max_configs,
                ..Budget::unlimited()
            },
            ..defaults
        })
}

fn partial(out: Outcome, name: &str) -> Checkpoint {
    match out {
        Outcome::Partial(p) => p.checkpoint,
        Outcome::Complete(_) => panic!("{name}: the budget must interrupt"),
    }
}

fn complete(out: Outcome, name: &str) -> f64 {
    match out {
        Outcome::Complete(rep) => rep.reliability,
        Outcome::Partial(_) => panic!("{name}: an unlimited resume must finish"),
    }
}

/// One budgeted serial run from scratch: its checkpoint must match the
/// fixture, and resuming the fixture without a budget must finish at
/// `final_bits`.
fn check_run(
    name: &str,
    (net, d): (Network, FlowDemand),
    strategy: Strategy,
    max_configs: u64,
    max_depth: Option<usize>,
    final_bits: u64,
) {
    let budgeted = serial(strategy.clone(), Some(max_configs), max_depth);
    let ck = partial(budgeted.run(&net, d).unwrap(), name);
    let golden = assert_golden(name, &ck);
    let whole = serial(strategy.clone(), None, max_depth);
    let r = complete(whole.resume(&net, d, &golden).unwrap(), name);
    assert_eq!(r.to_bits(), final_bits, "{name}: resumed to {r}");
    let r = complete(whole.run(&net, d).unwrap(), name);
    assert_eq!(
        r.to_bits(),
        final_bits,
        "{name}: uninterrupted run gave {r}"
    );
}

/// `generate grid 3 3` reliability, `--strategy naive` and `--strategy
/// factoring` alike.
const GRID_BITS: u64 = 0x3fed_a8f1_029f_3611;
/// `generate degraded-barbell 4 2 3 2 7` reliability, `--strategy naive`.
const DEGRADED_BITS: u64 = 0x3fef_9b44_7823_efb7;
/// `generate barbell 4 2 2 2 1` reliability, `--strategy auto`, on the
/// recursive and the flat (`max_depth: 0`) plan alike.
const BARBELL_BITS: u64 = 0x3feb_f115_5831_4382;
/// `generate barbell 7 4 2 2 1` reliability, `--strategy auto`.
const WIDE_BARBELL_BITS: u64 = 0x3fea_a045_738c_7d76;
/// `hub_barbell(0.15)` on its `k = 2` `DeepCut` plan.
const HUB_BITS: u64 = 0x3fd9_4dc4_2276_62ee;

#[test]
fn naive_grid_checkpoints_are_byte_stable() {
    // a 1000-configuration run is the first slice of the resume chain below
    for (n, name) in [
        (200, "naive-grid33-200.ckpt"),
        (1000, "naive-grid33-chain-1.ckpt"),
    ] {
        check_run(name, grid33(), Strategy::Naive, n, None, GRID_BITS);
    }
}

#[test]
fn naive_grid_resume_chain_is_byte_stable() {
    let (net, d) = grid33();
    let slice = serial(Strategy::Naive, Some(1000), None);
    let mut out = slice.run(&net, d).unwrap();
    let mut k = 0;
    let r = loop {
        match out {
            Outcome::Complete(rep) => break rep.reliability,
            Outcome::Partial(p) => {
                k += 1;
                let golden = assert_golden(&format!("naive-grid33-chain-{k}.ckpt"), &p.checkpoint);
                out = slice.resume(&net, d, &golden).unwrap();
            }
        }
    };
    assert_eq!(k, 4, "4096 configurations in slices of 1000");
    assert_eq!(r.to_bits(), GRID_BITS, "chain resumed to {r}");
}

#[test]
fn mixed_radix_naive_checkpoint_is_byte_stable() {
    check_run(
        "naive-degraded-barbell-200.ckpt",
        degraded_barbell(),
        Strategy::Naive,
        200,
        None,
        DEGRADED_BITS,
    );
}

#[test]
fn auto_plan_checkpoints_are_byte_stable() {
    for n in [3, 40] {
        check_run(
            &format!("auto-barbell-{n}.ckpt"),
            barbell(),
            Strategy::Auto,
            n,
            None,
            BARBELL_BITS,
        );
    }
    check_run(
        "auto-barbell-flat-40.ckpt",
        barbell(),
        Strategy::Auto,
        40,
        Some(0),
        BARBELL_BITS,
    );
}

#[test]
fn deep_cut_plan_checkpoint_is_byte_stable() {
    let name = "deepcut-hub-barbell-2.ckpt";
    let (net, d) = hub_barbell(0.15);
    let opts = CalcOptions {
        parallel: false,
        ..CalcOptions::default()
    };
    let set = find_bottleneck_set(&net, d.source, d.sink, 2).unwrap();
    let plan = DecompositionPlan::plan_on_set(&net, d, &set, &opts, 2).unwrap();
    assert!(matches!(plan.root_node(), PlanNode::DeepCut(_)));
    let tiny = CalcOptions {
        budget: Budget {
            max_configs: Some(2),
            ..Budget::unlimited()
        },
        ..opts.clone()
    };
    let PlanOutcome::Partial { checkpoint, .. } = plan.execute(&tiny, None).unwrap() else {
        panic!("{name}: the budget must interrupt");
    };
    let ck = Checkpoint {
        fingerprint: instance_fingerprint(&net, &d, &opts),
        reduce_shape: None,
        radices: None,
        kind: CheckpointKind::Plan(checkpoint),
    };
    let CheckpointKind::Plan(golden) = assert_golden(name, &ck).kind else {
        panic!("{name}: the fixture must hold a plan checkpoint");
    };
    let PlanOutcome::Complete { reliability, .. } = plan.execute(&opts, Some(&golden)).unwrap()
    else {
        panic!("{name}: an unlimited resume must finish");
    };
    assert_eq!(reliability.to_bits(), HUB_BITS, "resumed to {reliability}");
}

#[test]
fn wide_side_plan_checkpoint_is_byte_stable() {
    let name = "auto-barbell7-300.ckpt";
    check_run(
        name,
        wide_barbell(),
        Strategy::Auto,
        300,
        None,
        WIDE_BARBELL_BITS,
    );
    // both 8-link sides carry the nearest-first marker
    assert_eq!(fixture(name).matches("\norder bfs\n").count(), 2);
}

#[test]
fn side_checkpoints_written_before_the_nearest_first_order_are_refused() {
    // the same budgeted run, written before side sweeps walked their links
    // nearest first: its cursors count configurations in the old order
    let text = fixture("legacy-order-barbell7-300.ckpt");
    let err = Checkpoint::from_text(&text).unwrap_err();
    assert!(
        matches!(err, ReliabilityError::CheckpointMismatch { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("order bfs"), "{err}");
}

#[test]
fn factoring_grid_checkpoint_is_byte_stable() {
    // 12 links: the walk's blocks above 64 configurations close
    let name = "factoring-grid33-200.ckpt";
    check_run(name, grid33(), Strategy::Factoring, 200, None, GRID_BITS);
    assert!(fixture(name).contains("\nkind factoring\ncursor 1000 1\n"));
}

#[test]
fn factoring_checkpoints_written_before_the_sweep_driver_are_refused() {
    // `generate grid 3 3` at `--strategy factoring --max-configs 20`, written
    // before factoring ran on the sweep driver: its frames are no cursor
    let text = fixture("legacy-factoring-grid33-20.ckpt");
    let err = Checkpoint::from_text(&text).unwrap_err();
    assert!(
        matches!(err, ReliabilityError::CheckpointMismatch { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("sweep driver"), "{err}");
}
