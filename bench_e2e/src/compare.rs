//! `bench_e2e compare A1.json … -- B1.json …`: two sets of runs of the same
//! benchmark, side A (the parent) and side B (the change), metric by metric.
//!
//! For each workload and metric it prints each side's median and quartiles,
//! the share of pairs B wins (runs paired in the order given) and a verdict
//! against the metric's bound in `BENCHMARK.json`:
//!
//! * `better`: B wins at least nine pairs in ten and the medians differ by
//!   more than A's interquartile range;
//! * `worse`: B's median is worse than A's by more than the bound;
//! * `unresolved`: the spread of either side exceeds the bound, unless every
//!   run of one side reads better than every run of the other;
//! * `same` otherwise. Per-layer metrics carry no bound and get no verdict.

use std::collections::BTreeMap;
use std::process::ExitCode;

use flowrel_server::json::{parse, Json, JsonLimits};

use crate::stats::{median, quartiles};

/// A metric as `BENCHMARK.json` declares it.
struct Spec {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text, &JsonLimits::default()).map_err(|e| format!("{path}: {e}"))
}

fn specs(path: &str) -> Result<Vec<Spec>, String> {
    let doc = read_json(path)?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let Some(Json::Arr(items)) = doc.get(section) else {
            return Err(format!("{path}: no '{section}' list"));
        };
        for item in items {
            let name = item.get("name").and_then(Json::as_str);
            let better = item.get("better").and_then(Json::as_str);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!(
                    "{path}: a {section} metric lacks 'name' or 'better'"
                ));
            };
            out.push(Spec {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound: item.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

/// `workload → metric → values`, in the order the files were given.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let doc = read_json(path)?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: no 'workload' (write results with --out)"))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{path}: no 'metrics' object"));
        };
        let slot = side.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(side)
}

/// Pairs run and pairs B won, runs paired in the order given.
fn pair_wins(a: &[f64], b: &[f64], lower_is_better: bool) -> (usize, usize) {
    let pairs = a.len().min(b.len());
    let won = |i: &usize| {
        if lower_is_better {
            b[*i] < a[*i]
        } else {
            b[*i] > a[*i]
        }
    };
    (pairs, (0..pairs).filter(won).count())
}

/// The verdict on one metric; see the module docs.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: Option<f64>) -> &'static str {
    let Some(bound) = bound else { return "-" };
    let (ma, mb) = (median(a), median(b));
    let iqr = |xs: &[f64]| quartiles(xs).map_or(0.0, |(q1, q3)| q3 - q1);
    let spread = (iqr(a) / ma.abs()).max(iqr(b) / mb.abs());
    // positive when B is worse
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    let b_beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (pairs, wins) = pair_wins(a, b, lower_is_better);
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(x, y)));
    if pairs > 0 && wins * 10 >= pairs * 9 && worse_by < 0.0 && (mb - ma).abs() > iqr(a) {
        "better"
    } else if worse_by > bound {
        if spread > bound && !all(&|x, y| b_beats(x, y)) {
            "unresolved"
        } else {
            "worse"
        }
    } else if spread > bound && !all(&|x, y| b_beats(y, x)) {
        "unresolved"
    } else {
        "same"
    }
}

/// Runs the subcommand; `args` follow `compare`.
pub fn main(args: &[String]) -> ExitCode {
    match compare(args) {
        Ok(worse) => ExitCode::from(u8::from(worse)),
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut bench = String::from("BENCHMARK.json");
    let mut files = (Vec::new(), Vec::new());
    let mut after = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--" => after = true,
            "--benchmark" => bench = it.next().ok_or("--benchmark needs a path")?.clone(),
            f if after => files.1.push(f.to_string()),
            f => files.0.push(f.to_string()),
        }
    }
    if files.0.is_empty() || files.1.is_empty() {
        return Err("usage: bench_e2e compare A1.json … -- B1.json … [--benchmark FILE]".into());
    }
    let specs = specs(&bench)?;
    let (a, b) = (load(&files.0)?, load(&files.1)?);
    let mut any_worse = false;
    println!(
        "{:<14} {:<26} {:>32} {:>32} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    for (workload, am) in &a {
        let Some(bm) = b.get(workload) else { continue };
        for spec in &specs {
            let (Some(av), Some(bv)) = (am.get(&spec.name), bm.get(&spec.name)) else {
                continue;
            };
            let v = verdict(av, bv, spec.lower_is_better, spec.bound);
            any_worse |= v == "worse";
            let side = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
                format!("{:.4} [{:.4}, {:.4}]", median(xs), q1, q3)
            };
            let (pairs, wins) = pair_wins(av, bv, spec.lower_is_better);
            println!(
                "{:<14} {:<26} {:>32} {:>32} {:>7}  {v}",
                workload,
                spec.name,
                side(av),
                side(bv),
                format!("{wins}/{pairs}")
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        // B clearly faster in every pair
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &faster, true, Some(0.1)), "better");
        // B slower beyond the bound
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&a, &slower, true, Some(0.1)), "worse");
        // within the bound
        let same: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
        assert_eq!(verdict(&a, &same, true, Some(0.1)), "same");
        // noisy B: spread wider than the bound
        let noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 8.0, 12.0, 10.0];
        assert_eq!(verdict(&a, &noisy, true, Some(0.1)), "unresolved");
        // higher-is-better metrics flip the direction
        assert_eq!(verdict(&a, &slower, false, Some(0.1)), "better");
        assert_eq!(verdict(&a, &slower, true, None), "-");
    }
}
