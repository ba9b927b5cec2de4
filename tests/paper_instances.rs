//! Computational reproduction of the paper's figures and worked examples
//! (experiment ids FIG2, FIG3/EX1, FIG4/EX3, FIG5 in DESIGN.md).

use flowrel::core::{
    decompose, enumerate_assignments, reliability_bottleneck, reliability_factoring,
    reliability_naive, reliability_naive_exact, validate_bottleneck_set, CalcOptions, FlowDemand,
    RealizationTable, ReliabilityCalculator, SideOracle, Strategy,
};
use flowrel::netgraph::EdgeMask;
use flowrel::workloads::paper;

/// FIG2: on the bridge graph, Eq. 1's decomposition agrees with naive
/// enumeration, factoring, and the full bottleneck machinery.
#[test]
fn fig2_all_algorithms_agree() {
    let (inst, bridge) = paper::fig2_bridge();
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let opts = CalcOptions::default();
    let naive = reliability_naive(&inst.net, d, &opts).unwrap();
    let bridge_r = ReliabilityCalculator::new()
        .with_strategy(Strategy::BottleneckAuto { max_k: 1 })
        .run_complete(&inst.net, d)
        .unwrap()
        .reliability;
    let factoring = reliability_factoring(&inst.net, d, &opts).unwrap();
    let bottleneck = reliability_bottleneck(&inst.net, d, &[bridge], &opts).unwrap();
    assert!((naive - bridge_r).abs() < 1e-12);
    assert!((naive - factoring).abs() < 1e-12);
    assert!((naive - bottleneck).abs() < 1e-12);
    // and exactly, in rational arithmetic
    let exact = reliability_naive_exact(&inst.net, d, &opts).unwrap();
    assert!((naive - exact.to_f64()).abs() < 1e-12);
}

/// EX1 (and Fig. 3): the assignment set for d = 5 over three capacity-3
/// links has exactly the 12 members the paper lists.
#[test]
fn example1_assignment_count() {
    let (d, caps) = paper::example1_caps();
    let ranges: Vec<(i64, i64)> = caps
        .iter()
        .map(|&c| (0i64, (c as i64).min(d as i64)))
        .collect();
    let set = enumerate_assignments(d, &ranges);
    assert_eq!(set.len(), 12);
    assert_eq!(set[0].amounts, vec![0, 2, 3]);
    assert_eq!(set[11].amounts, vec![3, 2, 0]);
}

/// FIG4/EX3: the reconstructed two-bottleneck graph has assignment set
/// {(0,2), (1,1), (2,0)}, and the bottleneck algorithm matches naive on it.
#[test]
fn fig4_reconstruction_reproduces_example_3() {
    let (inst, cut) = paper::fig4_two_bottleneck();
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let opts = CalcOptions::default();

    let set = validate_bottleneck_set(&inst.net, d.source, d.sink, &cut).unwrap();
    assert_eq!(set.k(), 2);
    assert_eq!(set.side_s_edges, 5);
    assert_eq!(set.side_t_edges, 2);

    let naive = reliability_naive(&inst.net, d, &opts).unwrap();
    let bn = reliability_bottleneck(&inst.net, d, &cut, &opts).unwrap();
    assert!(
        (naive - bn).abs() < 1e-12,
        "naive {naive} vs bottleneck {bn}"
    );
    assert!(naive > 0.0 && naive < 1.0);
}

/// FIG5: the three highlighted failure configurations of G_s realize exactly
/// the assignment sets the paper states.
#[test]
fn fig5_configurations_realize_paper_sets() {
    let (inst, cut, side_links) = paper::fig4_parts();
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let set = validate_bottleneck_set(&inst.net, d.source, d.sink, &cut).unwrap();
    let dec = decompose(&inst.net, &d, &set);
    assert_eq!(dec.side_s.net.edge_count(), 5);
    // side edge i originates from parent link side_links[i]
    assert_eq!(
        dec.side_s.edge_origin, side_links,
        "side-s edge numbering matches c1..c5"
    );

    // assignments in lexicographic order: (0,2), (1,1), (2,0)
    let ranges = vec![(0i64, 2), (0, 2)];
    let assignments = enumerate_assignments(2, &ranges);
    let amounts: Vec<Vec<i64>> = assignments.iter().map(|a| a.amounts.clone()).collect();
    assert_eq!(amounts, vec![vec![0, 2], vec![1, 1], vec![2, 0]]);

    let mut oracle =
        SideOracle::new(&dec.side_s, &assignments, maxflow::SolverKind::Dinic).unwrap();
    let table = RealizationTable::build(&mut oracle, 26, 20).unwrap();

    for (alive, expected) in paper::fig5_configurations() {
        let mut bits = 0u64;
        for i in alive {
            bits |= 1 << i;
        }
        let realized: Vec<Vec<i64>> = table
            .realized(bits as usize)
            .into_iter()
            .map(|j| assignments[j].amounts.clone())
            .collect();
        assert_eq!(realized, expected, "config {bits:#b}");
    }
}

/// The paper-faithful realization array and the all-alive column behave as
/// Section III-C describes: 2^{|E_s|} entries of |D| bits each.
#[test]
fn fig4_array_dimensions_match_section_3c() {
    let (inst, cut, _) = paper::fig4_parts();
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let set = validate_bottleneck_set(&inst.net, d.source, d.sink, &cut).unwrap();
    let dec = decompose(&inst.net, &d, &set);
    let assignments = enumerate_assignments(2, &[(0i64, 2), (0, 2)]);
    let mut oracle =
        SideOracle::new(&dec.side_s, &assignments, maxflow::SolverKind::Dinic).unwrap();
    let table = RealizationTable::build(&mut oracle, 26, 20).unwrap();
    assert_eq!(table.masks.len(), 1 << 5, "2^{{|E_s|}} entries");
    assert_eq!(table.assign_count, 3, "|D|-bit entries");
    // the all-failed configuration realizes nothing
    assert_eq!(table.mask(0), 0);
    // monotonicity: adding links never loses a realization
    for c in 0..table.masks.len() {
        for i in 0..5 {
            let superset = c | 1 << i;
            assert_eq!(
                table.mask(c) & !table.mask(superset),
                0,
                "config {c:#b} vs superset {superset:#b}"
            );
        }
    }
    let _ = EdgeMask::all_alive(5);
}
