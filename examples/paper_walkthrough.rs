//! Walk through the paper's worked examples (1–6) computationally.
//!
//! Run with `cargo run --example paper_walkthrough`.

use flowrel::core::{
    decompose, enumerate_assignments, reliability_bottleneck, reliability_naive,
    validate_bottleneck_set, Assignment, CalcOptions, FlowDemand, RealizationTable, SideOracle,
};
use flowrel::maxflow::SolverKind;
use flowrel::workloads::paper;

fn fmt_assignment(a: &Assignment) -> String {
    let inner: Vec<String> = a.amounts.iter().map(|x| x.to_string()).collect();
    format!("({})", inner.join(","))
}

fn main() {
    // ---- Example 1: the assignment set ------------------------------------
    println!("== Example 1: d = 5 over three capacity-3 bottleneck links ==");
    let (d, caps) = paper::example1_caps();
    let ranges: Vec<(i64, i64)> = caps
        .iter()
        .map(|&c| (0i64, (c as i64).min(d as i64)))
        .collect();
    let set = enumerate_assignments(d, &ranges);
    let rendered: Vec<String> = set.iter().map(fmt_assignment).collect();
    println!("|D| = {}  D = {{{}}}\n", set.len(), rendered.join(", "));

    // ---- Examples 3-5 on the reconstructed Fig. 4 instance ----------------
    println!("== Fig. 4 / Example 3: two bottleneck links, demand 2 ==");
    let (inst, cut, _) = paper::fig4_parts();
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let bset = validate_bottleneck_set(&inst.net, demand.source, demand.sink, &cut).unwrap();
    println!(
        "bottleneck set: {:?}   sides: |E_s| = {}, |E_t| = {}   alpha = {:.3}",
        bset.edges,
        bset.side_s_edges,
        bset.side_t_edges,
        bset.alpha(inst.net.edge_count())
    );
    let assignments = enumerate_assignments(2, &[(0i64, 2), (0, 2)]);
    let rendered: Vec<String> = assignments.iter().map(fmt_assignment).collect();
    println!("assignments: {{{}}}", rendered.join(", "));

    // ---- Fig. 5: realization sets of three side-s configurations ----------
    println!("\n== Fig. 5: realized assignment sets of G_s configurations ==");
    let dec = decompose(&inst.net, &demand, &bset);
    let mut oracle = SideOracle::new(&dec.side_s, &assignments, SolverKind::Dinic).unwrap();
    let table = RealizationTable::build(&mut oracle, 26, 20).unwrap();
    for (idx, (alive, _)) in paper::fig5_configurations().iter().enumerate() {
        let bits = alive.iter().fold(0usize, |acc, &i| acc | 1 << i);
        let realized: Vec<String> = table
            .realized(bits)
            .into_iter()
            .map(|j| fmt_assignment(&assignments[j]))
            .collect();
        let labels = ["(a)", "(b)", "(c)"];
        println!(
            "config {} alive c{{{}}}: realizes {{{}}}",
            labels[idx],
            alive
                .iter()
                .map(|i| (i + 1).to_string())
                .collect::<Vec<_>>()
                .join(","),
            realized.join(", ")
        );
    }

    // ---- Eq. 3: the reliability itself -------------------------------------
    println!("\n== Reliability of the Fig. 4 instance ==");
    let opts = CalcOptions::default();
    let bn = reliability_bottleneck(&inst.net, demand, &cut, &opts).unwrap();
    let naive = reliability_naive(&inst.net, demand, &opts).unwrap();
    println!("bottleneck algorithm: {bn:.9}");
    println!("naive enumeration:    {naive:.9}");
    println!("difference:           {:.2e}", (bn - naive).abs());
}
