//! Regenerates every table and figure of the paper as text output, plus the
//! measured rows recorded in EXPERIMENTS.md.
//!
//! Usage: `paper_tables [fig1|fig2|ex1|fig4|fig5|table1|fig6|thm|p2p|all]`

use std::time::Instant;

use flowrel_bench::{barbell_with_edges, demand_of};
use flowrel_core::{
    decompose, enumerate_assignments, esary_proschan_bounds, find_bottleneck_set,
    reliability_bottleneck, reliability_factoring, reliability_naive, validate_bottleneck_set,
    AccumulationMethod, Assignment, AssignmentModel, CalcOptions, FlowDemand, RealizationTable,
    ReliabilityCalculator, SideOracle, Strategy,
};
use flowrel_overlay::{hybrid_tree_mesh, multi_tree, random_mesh, single_tree, ChurnModel, Peer};
use maxflow::SolverKind;
use workloads::paper;

fn fmt_assignment(a: &Assignment) -> String {
    let inner: Vec<String> = a.amounts.iter().map(|x| x.to_string()).collect();
    format!("({})", inner.join(","))
}

/// FIG1: the naive procedure and its exponential cost.
fn fig1() {
    println!("=== FIG1: naive reliability calculation (Fig. 1) ===");
    println!(
        "{:>6} {:>10} {:>14} {:>14}",
        "|E|", "configs", "time", "reliability"
    );
    for target in [10usize, 12, 14, 16, 18] {
        let (inst, _) = barbell_with_edges(target, 2, 2, 21);
        let d = demand_of(&inst);
        let t0 = Instant::now();
        let r = reliability_naive(&inst.net, d, &CalcOptions::default()).unwrap();
        let dt = t0.elapsed();
        println!(
            "{:>6} {:>10} {:>14?} {:>14.9}",
            inst.net.edge_count(),
            1u64 << inst.net.edge_count(),
            dt,
            r
        );
    }
    println!("shape check: time roughly doubles per added link\n");
}

/// FIG2: the bridge decomposition (Eq. 1).
fn fig2() {
    println!("=== FIG2: graph with bridge (Fig. 2, Eq. 1) ===");
    let (inst, bridge) = paper::fig2_bridge();
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let opts = CalcOptions::default();
    let naive = reliability_naive(&inst.net, d, &opts).unwrap();
    // Eq. 1 is the k = 1 case of the bottleneck theorem: the planner splits
    // at the bridge and recurses into any bridges inside the sides
    let via_bridge = ReliabilityCalculator::new()
        .with_strategy(Strategy::BottleneckAuto { max_k: 1 })
        .run_complete(&inst.net, d)
        .unwrap()
        .reliability;
    let via_bottleneck = reliability_bottleneck(&inst.net, d, &[bridge], &opts).unwrap();
    println!("bridge link: {bridge} (the figure's red e9)");
    println!("naive enumeration        : {naive:.9}");
    println!("Eq. 1 (k = 1 plan)       : {via_bridge:.9}");
    println!("bottleneck algorithm k=1 : {via_bottleneck:.9}");
    println!(
        "max |Δ| = {:.2e}\n",
        (naive - via_bridge)
            .abs()
            .max((naive - via_bottleneck).abs())
    );
}

/// EX1/FIG3: the assignment set of Example 1.
fn ex1() {
    println!("=== EX1 (Fig. 3): assignment set for d=5, c=(3,3,3) ===");
    let (d, caps) = paper::example1_caps();
    let ranges: Vec<(i64, i64)> = caps
        .iter()
        .map(|&c| (0i64, (c as i64).min(d as i64)))
        .collect();
    let set = enumerate_assignments(d, &ranges);
    println!("|D| = {} (paper: 12)", set.len());
    let rendered: Vec<String> = set.iter().map(fmt_assignment).collect();
    println!("D = {{{}}}\n", rendered.join(", "));
}

/// FIG4: the reconstructed two-bottleneck instance and its reliability.
fn fig4() {
    println!("=== FIG4: two-bottleneck graph (reconstruction) ===");
    let (inst, cut, _) = paper::fig4_parts();
    println!("{}", netgraph::dot::to_dot(&inst.net, &cut));
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let set = validate_bottleneck_set(&inst.net, d.source, d.sink, &cut).unwrap();
    println!(
        "bottleneck set {:?}: |E_s|={}, |E_t|={}, alpha={:.3}",
        set.edges,
        set.side_s_edges,
        set.side_t_edges,
        set.alpha(inst.net.edge_count())
    );
    let opts = CalcOptions::default();
    let naive = reliability_naive(&inst.net, d, &opts).unwrap();
    let bn = reliability_bottleneck(&inst.net, d, &cut, &opts).unwrap();
    println!("reliability (naive)      : {naive:.9}");
    println!("reliability (bottleneck) : {bn:.9}\n");
}

fn fig4_side_table() -> (RealizationTable, Vec<Assignment>) {
    let (inst, cut, _) = paper::fig4_parts();
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let set = validate_bottleneck_set(&inst.net, d.source, d.sink, &cut).unwrap();
    let dec = decompose(&inst.net, &d, &set);
    let assignments = enumerate_assignments(2, &[(0i64, 2), (0, 2)]);
    let mut oracle = SideOracle::new(&dec.side_s, &assignments, SolverKind::Dinic).unwrap();
    let table = RealizationTable::build(&mut oracle, 26, 20).unwrap();
    (table, assignments)
}

/// FIG5: the three highlighted failure configurations of G_s.
fn fig5() {
    println!("=== FIG5: three failure configurations of G_s ===");
    let (table, assignments) = fig4_side_table();
    for (idx, (alive, expected)) in paper::fig5_configurations().iter().enumerate() {
        let bits = alive.iter().fold(0usize, |acc, &i| acc | 1 << i);
        let realized: Vec<String> = table
            .realized(bits)
            .into_iter()
            .map(|j| fmt_assignment(&assignments[j]))
            .collect();
        let expect: Vec<String> = expected
            .iter()
            .map(|a| fmt_assignment(&Assignment { amounts: a.clone() }))
            .collect();
        println!(
            "({}) alive links {{{}}}: realizes {{{}}}   [paper: {{{}}}]",
            ["a", "b", "c"][idx],
            alive
                .iter()
                .map(|i| format!("c{}", i + 1))
                .collect::<Vec<_>>()
                .join(","),
            realized.join(", "),
            expect.join(", ")
        );
    }
    println!();
}

/// TAB1: the full realization array of G_s in Table I's layout.
fn table1() {
    println!("=== TABLE I: assignments realized by each failure configuration ===");
    println!("(the array data structure of Section III-C for the Fig. 4 G_s;");
    println!(" 2^5 = 32 configurations, one column each, |D| = 3 assignments)\n");
    let (table, assignments) = fig4_side_table();
    println!(
        "assignments: {}",
        assignments
            .iter()
            .enumerate()
            .map(|(j, a)| format!("b{} = {}", j + 1, fmt_assignment(a)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{:>8} {:>12} realized set", "config", "bits c5..c1");
    for c in 0..table.masks.len() {
        let set: Vec<String> = table
            .realized(c)
            .into_iter()
            .map(|j| format!("b{}", j + 1))
            .collect();
        println!(
            "{:>8} {:>12} {{{}}}",
            format!("c{c}"),
            format!("{c:05b}"),
            set.join(",")
        );
    }
    println!();
}

/// FIG6: the two-procedure pipeline with per-stage timing.
fn fig6() {
    println!("=== FIG6: pipeline overview with stage timings ===");
    let (inst, cut) = barbell_with_edges(20, 2, 2, 63);
    let d = demand_of(&inst);
    let opts = CalcOptions::default();

    let t0 = Instant::now();
    let set = validate_bottleneck_set(&inst.net, d.source, d.sink, &cut).unwrap();
    let t_validate = t0.elapsed();

    let t0 = Instant::now();
    let found = find_bottleneck_set(&inst.net, d.source, d.sink, 2).unwrap();
    let t_discover = t0.elapsed();

    let t0 = Instant::now();
    let _dec = decompose(&inst.net, &d, &set);
    let t_decompose = t0.elapsed();

    let t0 = Instant::now();
    let r = reliability_bottleneck(&inst.net, d, &cut, &opts).unwrap();
    let t_total = t0.elapsed();

    println!(
        "instance: |E| = {}, planted k = 2 cut",
        inst.net.edge_count()
    );
    println!("stage (a) array generation + (b) accumulation are inside the total:");
    println!(
        "  discover bottleneck set : {t_discover:?} (found {:?})",
        found.edges
    );
    println!("  validate given set      : {t_validate:?}");
    println!("  decompose               : {t_decompose:?}");
    println!("  spectra + accumulation  : {t_total:?} (reliability = {r:.9})\n");
}

/// THM-MAIN: measured speedup table (the EXPERIMENTS.md rows).
fn thm() {
    println!("=== THM-MAIN: naive vs bottleneck, measured ===");
    println!(
        "{:>6} {:>7} {:>14} {:>14} {:>9} {:>12}",
        "|E|", "alpha", "naive", "bottleneck", "speedup", "|Δ|"
    );
    for target in [12usize, 14, 16, 18, 20, 22] {
        let (inst, cut) = barbell_with_edges(target, 2, 2, 33);
        let d = demand_of(&inst);
        let opts = CalcOptions::default();
        let t0 = Instant::now();
        let naive = reliability_naive(&inst.net, d, &opts).unwrap();
        let t_naive = t0.elapsed();
        let t0 = Instant::now();
        let bn = reliability_bottleneck(&inst.net, d, &cut, &opts).unwrap();
        let t_bn = t0.elapsed();
        let set = validate_bottleneck_set(&inst.net, d.source, d.sink, &cut).unwrap();
        println!(
            "{:>6} {:>7.3} {:>14?} {:>14?} {:>8.1}x {:>12.2e}",
            inst.net.edge_count(),
            set.alpha(inst.net.edge_count()),
            t_naive,
            t_bn,
            t_naive.as_secs_f64() / t_bn.as_secs_f64().max(1e-9),
            (naive - bn).abs()
        );
    }
    println!();
}

/// DOM-P2P: overlay comparison table.
fn p2p() {
    println!("=== DOM-P2P: overlay reliability (8 peers, rate 2, 90 s window) ===");
    let peers: Vec<Peer> = (0..8)
        .map(|i| Peer::new(4, 300.0 + 150.0 * (i % 4) as f64))
        .collect();
    let churn = ChurnModel::new(90.0).with_base_loss(0.02);
    let calc = ReliabilityCalculator::new();
    let run = |net: &netgraph::Network, s, t, d| {
        calc.run_complete(net, FlowDemand::new(s, t, d))
            .map(|r| r.reliability)
            .unwrap_or(f64::NAN)
    };
    println!(
        "{:<24} {:>12} {:>12}",
        "overlay", "full stream", "half stream"
    );
    let tree = single_tree(&peers, 2, 2, &churn);
    let sub = *tree.peers.last().unwrap();
    println!(
        "{:<24} {:>12.6} {:>12.6}",
        "single tree (f=2)",
        run(&tree.net, tree.server, sub, 2),
        run(&tree.net, tree.server, sub, 1)
    );
    let multi = multi_tree(&peers, 2, &churn);
    let sub = *multi.peers.last().unwrap();
    println!(
        "{:<24} {:>12.6} {:>12.6}",
        "multi-tree (2 stripes)",
        run(&multi.net, multi.server, sub, 2),
        run(&multi.net, multi.server, sub, 1)
    );
    for m in [2usize, 3] {
        let mesh = random_mesh(&peers, m, 2, &churn, 7);
        let sub = *mesh.peers.last().unwrap();
        println!(
            "{:<24} {:>12.6} {:>12.6}",
            format!("mesh (m={m})"),
            run(&mesh.net, mesh.server, sub, 2),
            run(&mesh.net, mesh.server, sub, 1)
        );
    }
    let hybrid = hybrid_tree_mesh(&peers, 0.5, 2, 2, &churn, 7);
    let sub = *hybrid.peers.last().unwrap();
    println!(
        "{:<24} {:>12.6} {:>12.6}",
        "hybrid treebone+mesh",
        run(&hybrid.net, hybrid.server, sub, 2),
        run(&hybrid.net, hybrid.server, sub, 1)
    );
    println!();
}

/// ABL-ACC quick check: the three accumulation variants agree.
///
/// Uses the paper's forward-only assignment model: the ablation targets the
/// paper's own constant factor (`2^{d^k}`), and the net-crossing extension
/// would inflate `|D|` beyond what PaperDirect's `O(4^{|D|})` scan tolerates.
fn acc() {
    println!("=== ABL-ACC: accumulation variants agree (forward-only model) ===");
    let (inst, cut) = barbell_with_edges(16, 3, 3, 77);
    let d = demand_of(&inst);
    for method in [
        AccumulationMethod::PaperDirect,
        AccumulationMethod::ZetaInclusionExclusion,
        AccumulationMethod::Complement,
    ] {
        let opts = CalcOptions {
            accumulation: method,
            max_assignments: 31,
            assignment_model: flowrel_core::AssignmentModel::ForwardOnly,
            ..CalcOptions::default()
        };
        let t0 = Instant::now();
        let r = reliability_bottleneck(&inst.net, d, &cut, &opts).unwrap();
        println!("{method:?}: {r:.12} in {:?}", t0.elapsed());
    }
    let fact = reliability_factoring(&inst.net, d, &CalcOptions::default()).unwrap();
    println!("factoring cross-check (exact max-flow semantics): {fact:.12}\n");
}

/// MODEL-GAP: the forward-only vs net-crossing assignment models.
fn model() {
    println!("=== MODEL-GAP: forward-only vs net-crossing assignments ===");
    let (inst, cut) = workloads::paper::weaving_counterexample();
    let d = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let naive = reliability_naive(&inst.net, d, &CalcOptions::default()).unwrap();
    let fwd_opts = CalcOptions {
        assignment_model: AssignmentModel::ForwardOnly,
        ..CalcOptions::default()
    };
    let fwd = reliability_bottleneck(&inst.net, d, &cut, &fwd_opts).unwrap();
    let net_model = reliability_bottleneck(&inst.net, d, &cut, &CalcOptions::default()).unwrap();
    println!("weaving counterexample (cut crossed forward/back/forward):");
    println!("  naive max-flow reliability : {naive:.9}  (= (7/8)^3)");
    println!("  paper forward-only model   : {fwd:.9}");
    println!("  net-crossing extension     : {net_model:.9}");
    println!("  (the default model is Net; CalcOptions::paper_faithful() restores");
    println!("   the paper's. See DESIGN.md, 'Findings'.)\n");
}

/// BOUNDS: Esary-Proschan sandwich on the Fig. 2 instance (d = 1).
fn bounds() {
    println!("=== BOUNDS: Esary-Proschan sandwich (d = 1) ===");
    let (inst, _) = workloads::paper::fig2_bridge();
    let d = FlowDemand::new(inst.source, inst.sink, 1);
    let exact = reliability_naive(&inst.net, d, &CalcOptions::default()).unwrap();
    let (lo, hi) = esary_proschan_bounds(&inst.net, d, 100_000).unwrap();
    println!("Fig. 2 instance: lower {lo:.6} <= exact {exact:.6} <= upper {hi:.6}");
    let inst2 = workloads::generators::grid(3, 3, 5);
    let d2 = FlowDemand::new(inst2.source, inst2.sink, 1);
    let exact2 = reliability_naive(&inst2.net, d2, &CalcOptions::default()).unwrap();
    let (lo2, hi2) = esary_proschan_bounds(&inst2.net, d2, 100_000).unwrap();
    println!("3x3 grid:        lower {lo2:.6} <= exact {exact2:.6} <= upper {hi2:.6}\n");
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "ex1" => ex1(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "table1" => table1(),
        "fig6" => fig6(),
        "thm" => thm(),
        "p2p" => p2p(),
        "acc" => acc(),
        "model" => model(),
        "bounds" => bounds(),
        "all" => {
            fig1();
            fig2();
            ex1();
            fig4();
            fig5();
            table1();
            fig6();
            thm();
            p2p();
            acc();
            model();
            bounds();
        }
        other => {
            eprintln!("unknown table '{other}'");
            eprintln!(
                "usage: paper_tables [fig1|fig2|ex1|fig4|fig5|table1|fig6|thm|p2p|acc|model|bounds|all]"
            );
            std::process::exit(2);
        }
    }
}
