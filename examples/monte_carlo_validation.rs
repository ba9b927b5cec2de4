//! Monte-Carlo vs exact: convergence of the sampling estimator to the exact
//! reliability (experiment ABL-MC, interactively).
//!
//! Run with `cargo run --release --example monte_carlo_validation`.

use flowrel::core::{reliability_naive, CalcOptions, FlowDemand};
use flowrel::montecarlo::{engine, EstimatorKind, McBudget, McReport, McSettings, StopTarget};
use flowrel::netgraph::Network;
use flowrel::workloads::generators::{barbell, BarbellParams};

/// Crude sampling through the estimation engine, up to `target`.
fn crude(net: &Network, demand: FlowDemand, target: StopTarget, seed: u64) -> McReport {
    let settings = McSettings {
        seed,
        estimator: EstimatorKind::Crude,
        target,
        ..Default::default()
    };
    let out = engine::run(
        net,
        demand.source,
        demand.sink,
        demand.demand,
        &settings,
        &McBudget::unlimited(),
        false,
    )
    .expect("estimate");
    *out.report()
}

fn covers(est: &McReport, value: f64) -> bool {
    est.ci_low <= value && value <= est.ci_high
}

fn main() {
    let (inst, _) = barbell(BarbellParams {
        cluster_nodes: 5,
        seed: 11,
        ..Default::default()
    });
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let exact = reliability_naive(&inst.net, demand, &CalcOptions::default()).expect("exact");
    println!(
        "barbell: |V| = {}, |E| = {}, d = {}",
        inst.net.node_count(),
        inst.net.edge_count(),
        inst.demand
    );
    println!("exact reliability: {exact:.9}\n");
    println!(
        "{:>10} {:>12} {:>12} {:>10}  covers?",
        "samples", "estimate", "abs error", "CI half"
    );
    for exp in [8u32, 10, 12, 14, 16, 18] {
        let samples = 1u64 << exp;
        let target = StopTarget {
            max_samples: samples,
            ..Default::default()
        };
        let est = crude(&inst.net, demand, target, 7);
        println!(
            "{:>10} {:>12.6} {:>12.2e} {:>10.2e}  {}",
            samples,
            est.mean,
            (est.mean - exact).abs(),
            (est.ci_high - est.ci_low) / 2.0,
            if covers(&est, exact) { "yes" } else { "NO" }
        );
    }
    println!("\nsequential stopping rule targeting a ±0.002 95% CI:");
    let target = StopTarget {
        ci_half: Some(0.002),
        max_samples: 1 << 22,
        ..Default::default()
    };
    let est = crude(&inst.net, demand, target, 13);
    println!(
        "stopped after {} samples at {:.6} (exact {:.6}, covered: {})",
        est.samples,
        est.mean,
        exact,
        covers(&est, exact)
    );
}
