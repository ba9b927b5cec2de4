//! Sweep-engine benchmark: measures what the shared configuration-sweep
//! engine ([`flowrel_core::sweep`]) buys on the naive and bottleneck paths —
//! wall time, configurations per second, solver calls avoided by
//! monotonicity certificates, warm-flow repairs by the incremental oracle —
//! and emits the results as machine-readable JSON (`BENCH_sweep.json`).
//!
//! Usage: `bench_sweep [--smoke] [output.json]`
//!
//! `--smoke` runs one rep on small graphs: a seconds-scale CI check that the
//! full mode matrix still executes and agrees, not a measurement. Otherwise
//! each row repeats its run until the repetitions total at least half a
//! second, and at least three times, and reports the median wall time.
//!
//! ## JSON schema
//!
//! Every mode row — measured or skipped — carries the same key set: `mode`,
//! `solver`, `wall_seconds`, `configs`, `configs_per_sec`, `solver_calls`,
//! `solver_calls_avoided`, `cache_hit_rate`, `flips`, `repairs`,
//! `full_resolves`, `speedup_vs_baseline`, `skipped`. Skipped rows (the
//! naive path on graphs past the `2^|E|` budget) null every metric and set
//! `skipped` to the reason; measured rows set `skipped` to `null`.

use std::time::Instant;

use flowrel_bench::{barbell_with_edges, demand_of, ring_barbell, tight_barbell};
use flowrel_core::{
    reliability_naive_with_stats, sweep_threads, CalcOptions, ReliabilityCalculator, Strategy,
    SweepStats,
};
use workloads::generators::{degraded_barbell, BarbellParams};

/// Naive enumeration is skipped above this many links (2^|E| solves).
const NAIVE_MAX_EDGES: usize = 20;

/// Repetitions of a measured row: at least this many...
const MIN_REPS: usize = 3;
/// ...and at least this much wall time in total, so a sub-millisecond row
/// still resolves a 10% change.
const MIN_TOTAL_SECONDS: f64 = 0.5;

/// One timed row: (reliability, stats, wall seconds), the median over
/// [`MIN_REPS`] or more repetitions totalling [`MIN_TOTAL_SECONDS`] or more;
/// one repetition in `smoke` mode.
fn time_median<F: FnMut() -> (f64, SweepStats)>(smoke: bool, mut f: F) -> (f64, SweepStats, f64) {
    let (min_reps, min_total) = if smoke {
        (1, 0.0)
    } else {
        (MIN_REPS, MIN_TOTAL_SECONDS)
    };
    let mut times = Vec::new();
    let mut out = (0.0, SweepStats::default());
    while times.len() < min_reps || times.iter().sum::<f64>() < min_total {
        let t0 = Instant::now();
        out = f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let n = times.len();
    let median = (times[(n - 1) / 2] + times[n / 2]) / 2.0;
    (out.0, out.1, median)
}

struct ModeRow {
    label: &'static str,
    solver: &'static str,
    reliability: f64,
    stats: SweepStats,
    seconds: f64,
}

fn mode_json(m: &ModeRow, baseline_seconds: f64) -> String {
    let cps = if m.seconds > 0.0 {
        m.stats.configs as f64 / m.seconds
    } else {
        0.0
    };
    format!(
        concat!(
            "{{\"mode\": \"{}\", \"solver\": \"{}\", \"wall_seconds\": {:.6}, ",
            "\"configs\": {}, \"configs_per_sec\": {:.1}, \"solver_calls\": {}, ",
            "\"solver_calls_avoided\": {}, \"cache_hit_rate\": {:.4}, ",
            "\"flips\": {}, \"repairs\": {}, \"full_resolves\": {}, ",
            "\"speedup_vs_baseline\": {:.3}, \"skipped\": null}}"
        ),
        m.label,
        m.solver,
        m.seconds,
        m.stats.configs,
        cps,
        m.stats.solver_calls,
        m.stats.solver_calls_avoided(),
        m.stats.hit_rate(),
        m.stats.flips,
        m.stats.repairs,
        m.stats.full_resolves,
        baseline_seconds / m.seconds.max(1e-12),
    )
}

/// A mode row that did not run: identical key set to [`mode_json`], every
/// metric `null`, and a non-null `skipped` reason — so JSON consumers can
/// treat skipped and measured rows uniformly and tell "not run" from "ran
/// and produced nothing".
fn skipped_mode_json(label: &str, solver: &str, reason: &str) -> String {
    format!(
        concat!(
            "{{\"mode\": \"{}\", \"solver\": \"{}\", \"wall_seconds\": null, ",
            "\"configs\": null, \"configs_per_sec\": null, \"solver_calls\": null, ",
            "\"solver_calls_avoided\": null, \"cache_hit_rate\": null, ",
            "\"flips\": null, \"repairs\": null, \"full_resolves\": null, ",
            "\"speedup_vs_baseline\": null, \"skipped\": \"{}\"}}"
        ),
        label, solver, reason,
    )
}

fn opts(parallel: bool, certs: bool, incremental: bool) -> CalcOptions {
    CalcOptions {
        parallel,
        certificate_cache: certs,
        incremental,
        ..Default::default()
    }
}

/// (label, parallel, certificates, incremental). The first four reproduce
/// the historical modes (incremental off, since the option now defaults on);
/// the last two measure what warm-flow repair adds on top.
const MODES: [(&str, bool, bool, bool); 7] = [
    ("serial", false, false, false),
    ("serial+certs", false, true, false),
    ("parallel", true, false, false),
    ("parallel+certs", true, true, false),
    ("serial+incremental", false, false, true),
    ("serial+certs+incremental", false, true, true),
    ("parallel+certs+incremental", true, true, true),
];

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_sweep.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                eprintln!("usage: bench_sweep [--smoke] [output.json]");
                return;
            }
            other => out_path = other.to_string(),
        }
    }
    let mut cases = Vec::new();

    let mut graphs = Vec::new();
    let barbells: &[(usize, usize, u64, u64)] = if smoke {
        &[(14, 2, 2, 21)]
    } else {
        &[(18, 2, 2, 21), (20, 3, 2, 7)]
    };
    for &(target_edges, k, demand, seed) in barbells {
        let (inst, cut) = barbell_with_edges(target_edges, k, demand, seed);
        graphs.push(("barbell", inst, cut));
    }
    // capacity-tight rings: every link is a unit-capacity bottleneck, the
    // regime where saturated-cut certificates refute the most configurations
    let rings: &[(usize, usize, u64)] = if smoke {
        &[(7, 3, 5)]
    } else {
        &[(11, 4, 5), (13, 4, 9)]
    };
    for &(cluster_nodes, k, seed) in rings {
        let (inst, cut) = ring_barbell(cluster_nodes, k, seed);
        graphs.push(("ring", inst, cut));
    }
    // demand pinned to the all-alive max flow: the certificate-hostile
    // regime where warm-flow repair has to carry the sweep
    let tights: &[(usize, usize, usize, u64)] = if smoke {
        &[(4, 1, 3, 11)]
    } else {
        &[(6, 2, 4, 11), (7, 3, 4, 3)]
    };
    for &(n, extra, k, seed) in tights {
        let (inst, cut) = tight_barbell(n, extra, k, seed);
        graphs.push(("tight", inst, cut));
    }
    // degraded barbells: the cut links carry 3-state capacity spectra, so
    // the sweep enumerates a mixed-radix configuration space; the v1
    // planner keeps multi-state links out of cuts, so only the naive path
    // runs and the bottleneck rows are emitted as skipped
    let degradeds: &[(usize, usize, usize, u64)] = if smoke {
        &[(3, 1, 2, 7)]
    } else {
        &[(5, 3, 2, 21), (5, 3, 3, 7)]
    };
    for &(cluster_nodes, extra, k, seed) in degradeds {
        let (inst, cut) = degraded_barbell(BarbellParams {
            cluster_nodes,
            cluster_extra_edges: extra,
            cut_links: k,
            cut_capacity: 2,
            demand: 2,
            seed,
        });
        graphs.push(("degraded", inst, cut));
    }

    for (family, inst, cut) in graphs {
        let d = demand_of(&inst);
        let k = cut.len();
        let demand = inst.demand;
        let edges = inst.net.edge_count();
        let name = format!("{family}_e{edges}_k{k}_d{demand}");
        eprintln!("== {name} ({edges} links, |cut|={k}, d={demand}) ==");

        // --- naive path (skipped for the larger graphs: 2^|E| is the point
        // of the bottleneck algorithm) ---
        let mut naive_rows = Vec::new();
        let naive_skipped = edges > NAIVE_MAX_EDGES;
        if !naive_skipped {
            for (label, par, certs, incr) in MODES {
                let o = opts(par, certs, incr);
                let solver = o.solver.name();
                let (r, stats, secs) = time_median(smoke, || {
                    reliability_naive_with_stats(&inst.net, d, &o).expect("naive")
                });
                eprintln!(
                    "  naive {label:>26}: {secs:>9.4}s  R={r:.9}  solves={} avoided={} repairs={}",
                    stats.solver_calls,
                    stats.solver_calls_avoided(),
                    stats.repairs,
                );
                naive_rows.push(ModeRow {
                    label,
                    solver,
                    reliability: r,
                    stats,
                    seconds: secs,
                });
            }
        }

        // --- bottleneck path: the one-level split on the generator's cut,
        // as the calculator runs it (skipped when the cut carries capacity
        // spectra: the v1 planner keeps multi-state links out of cuts) ---
        let multistate = inst.net.has_multistate();
        let mut bn_rows = Vec::new();
        if !multistate {
            for (label, par, certs, incr) in MODES {
                let o = CalcOptions {
                    max_depth: 0,
                    reduce: false,
                    ..opts(par, certs, incr)
                };
                let solver = o.solver.name();
                let calc = ReliabilityCalculator::new()
                    .with_strategy(Strategy::Bottleneck(cut.clone()))
                    .with_options(o);
                let (r, stats, secs) = time_median(smoke, || {
                    let rep = calc.run_complete(&inst.net, d).expect("bottleneck");
                    (
                        rep.reliability,
                        rep.bottleneck.expect("a split report").sweep,
                    )
                });
                eprintln!(
                    "  bottleneck {label:>21}: {secs:>9.4}s  R={r:.9}  solves={} avoided={} repairs={}",
                    stats.solver_calls,
                    stats.solver_calls_avoided(),
                    stats.repairs,
                );
                bn_rows.push(ModeRow {
                    label,
                    solver,
                    reliability: r,
                    stats,
                    seconds: secs,
                });
            }
        }

        // the saturated-cut certificate cache must keep paying off when the
        // enumeration is mixed-radix, not just on bitmask sweeps
        if multistate {
            for row in &naive_rows {
                if row.label.contains("certs") {
                    assert!(
                        row.stats.hit_rate() > 0.9,
                        "{name}/{}: certificate-cache hit rate {:.4} must exceed 0.9 \
                         under mixed-radix enumeration",
                        row.label,
                        row.stats.hit_rate()
                    );
                }
            }
        }

        // all runs must agree on the reliability
        let r0 = naive_rows
            .first()
            .or(bn_rows.first())
            .expect("at least one path ran")
            .reliability;
        for row in naive_rows.iter().chain(&bn_rows) {
            assert!(
                (row.reliability - r0).abs() < 1e-12,
                "{name}/{}: {} vs {}",
                row.label,
                row.reliability,
                r0
            );
        }

        let naive_json = if naive_skipped {
            let reason = format!("2^{edges} configs over naive budget");
            let solver = CalcOptions::default().solver.name();
            format!(
                "[\n    {}\n   ]",
                MODES
                    .iter()
                    .map(|(label, ..)| skipped_mode_json(label, solver, &reason))
                    .collect::<Vec<_>>()
                    .join(",\n    ")
            )
        } else {
            format!(
                "[\n    {}\n   ]",
                naive_rows
                    .iter()
                    .map(|m| mode_json(m, naive_rows[0].seconds))
                    .collect::<Vec<_>>()
                    .join(",\n    ")
            )
        };
        let bn_json: Vec<String> = if multistate {
            let solver = CalcOptions::default().solver.name();
            MODES
                .iter()
                .map(|(label, ..)| {
                    skipped_mode_json(
                        label,
                        solver,
                        "multi-state cut links are not v1 bottlenecks",
                    )
                })
                .collect()
        } else {
            let base_bn = bn_rows[0].seconds;
            bn_rows.iter().map(|m| mode_json(m, base_bn)).collect()
        };
        cases.push(format!(
            concat!(
                "  {{\"case\": \"{}\", \"edges\": {}, \"cut_links\": {}, \"demand\": {}, ",
                "\"reliability\": {:.12},\n   \"naive\": {},\n",
                "   \"bottleneck\": [\n    {}\n   ]}}"
            ),
            name,
            edges,
            k,
            demand,
            r0,
            naive_json,
            bn_json.join(",\n    "),
        ));
    }

    let json = format!(
        "{{\n \"bench\": \"sweep_engine\",\n \"smoke\": {},\n \"threads\": {},\n \"cases\": [\n{}\n ]\n}}\n",
        smoke,
        sweep_threads(),
        cases.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_sweep.json");
    eprintln!("wrote {out_path}");
    print!("{json}");
}
