//! The library workloads (`alpha-sweep`, `nested-plan`, `mc-mesh`): `.fnet`
//! text parsed and solved with `ReliabilityCalculator::run`, serially, as
//! `flowrel compute` does.
//!
//! A run makes whole passes over the workload's catalogue until `--seconds`
//! have passed. Every pass draws fresh inputs from the seed (new failure
//! probabilities, or new estimator seeds), so no answer repeats, while the
//! work per entry stays the same. Times are scaled to the reference machine
//! speed (see `clock.rs`), and an entry's latency is the least of its
//! passes: noise on a shared host only ever adds time.

use std::time::{Duration, Instant};

use flowrel_core::{CalcOptions, Strategy};

use crate::catalog::{self, derive, Entry, Workload};
use crate::clock;
use crate::ops::{self, Answer};
use crate::refs::{disagreement, EXACT_TOL};
use crate::stats::{median, quantile};
use crate::trace::TraceRun;
use crate::{peak_rss_mb, Checks, Metric, Run, Settings};

/// The `.fnet` texts of pass `pass`.
fn pass_texts(w: Workload, entries: &[Entry], seed: u64, pass: u64) -> Vec<String> {
    match w {
        // the estimator seed varies per pass instead: see `ops::strategy`
        Workload::McMesh => entries.iter().map(Entry::text).collect(),
        _ => entries
            .iter()
            .map(|e| e.reweighted(derive(seed, pass)))
            .collect(),
    }
}

/// Independent configurations a sampled exact answer is re-derived with,
/// tried in order until one finishes within its allowance: the flat
/// one-level plan, no structural reduction, no certificate cache.
fn cross_check_options() -> [(&'static str, CalcOptions); 3] {
    let capped = || {
        let mut o = ops::library_options();
        o.budget.max_configs = Some(1 << 25);
        o
    };
    [
        (
            "flat plan",
            CalcOptions {
                max_depth: 0,
                ..capped()
            },
        ),
        (
            "no reduction",
            CalcOptions {
                reduce: false,
                ..capped()
            },
        ),
        (
            "no certificates",
            CalcOptions {
                certificate_cache: false,
                incremental: false,
                ..capped()
            },
        ),
    ]
}

/// One timed operation's outcome.
struct Op {
    pass: u64,
    index: usize,
    answer: Result<Answer, String>,
    /// Wall time, milliseconds.
    ms: f64,
    /// The calibration taken just before it.
    cal: f64,
}

/// Runs a library workload.
pub fn run(s: &Settings) -> Run {
    let w = s.workload;
    // set-up ends with a warm-up solve of the first operation, so one-time
    // work a solve triggers (lazy tables, first allocations) shows here and
    // not in the timed passes
    let opts = ops::library_options();
    let mut setups = Vec::new();
    let mut setup_cals = Vec::new();
    let mut entries = Vec::new();
    let mut warm = Err(String::from("no set-up ran"));
    for _ in 0..s.setup_reps() {
        setup_cals.push(clock::calibrate());
        let t0 = Instant::now();
        entries = catalog::entries(w, s.smoke);
        let texts = pass_texts(w, &entries, s.seed, 0);
        warm = ops::solve(&texts[0], &ops::strategy(w, s.seed, 0, 0), &opts);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let budget = Duration::from_secs_f64(s.seconds);
    let mut done = Vec::new();
    let mut traced = s.trace.then(TraceRun::new);
    let start = Instant::now();
    for pass in 0.. {
        let texts = pass_texts(w, &entries, s.seed, pass);
        for (index, text) in texts.iter().enumerate() {
            let strategy = ops::strategy(w, s.seed, pass, index);
            let cal = clock::calibrate();
            let (answer, ms) = match traced.as_mut() {
                Some(t) => t.record(done.len() as u32, text, &strategy, &opts),
                None => {
                    let t0 = Instant::now();
                    let answer = ops::solve(text, &strategy, &opts);
                    (answer, t0.elapsed().as_secs_f64() * 1e3)
                }
            };
            done.push(Op {
                pass,
                index,
                answer,
                ms,
                cal,
            });
        }
        if s.smoke || start.elapsed() >= budget {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    let cals: Vec<f64> = done.iter().map(|op| op.cal).collect();
    eprintln!(
        "{}: {} ops over {} passes of {} entries; calibration loop median {:.3} ms",
        w.name(),
        done.len(),
        done.last().map_or(0, |op| op.pass + 1),
        entries.len(),
        median(&cals)
    );

    let mut checks = Checks::default();
    for op in &done {
        checks.op(check_op(s, &entries[op.index], op));
    }
    if w == Workload::McMesh {
        checks.global(mc_coverage(s.smoke));
    } else {
        cross_check(s, &entries, &done, &mut checks);
    }
    checks.global(repeatable(&warm, &done));

    let metrics = match traced {
        Some(t) => {
            if let Some(path) = &s.trace_out {
                checks.global(t.tracer.write(path).map_err(|e| format!("{path}: {e}")));
            }
            t.metrics(clock::factor(&cals))
        }
        None => {
            let raw: Vec<f64> = done.iter().map(|op| op.ms).collect();
            // each entry's latency: the best of its passes, at reference speed
            let mut best = vec![f64::INFINITY; entries.len()];
            for (op, ms) in done.iter().zip(clock::scale(&raw, &cals)) {
                best[op.index] = best[op.index].min(ms);
            }
            let completes = done
                .iter()
                .filter(|op| op.answer.as_ref().is_ok_and(|a| a.complete))
                .count();
            vec![
                Metric::new("setup_s", median(&setups) * clock::factor(&setup_cals), "s"),
                Metric::new("op_ms_p50", quantile(&best, 0.5), "ms"),
                Metric::new("op_ms_p90", quantile(&best, 0.9), "ms"),
                Metric::new(
                    "ops_per_s",
                    best.len() as f64 * 1e3 / best.iter().sum::<f64>(),
                    "1/s",
                ),
                Metric::new(
                    "complete_frac",
                    completes as f64 / done.len().max(1) as f64,
                    "frac",
                ),
                Metric::new("peak_rss_mb", peak_rss, "MB"),
            ]
        }
    };
    checks.finish(metrics)
}

/// The reference key of an operation.
fn key(entry: &Entry, pass: u64) -> String {
    format!("p{pass}/{}", entry.name)
}

fn check_op(s: &Settings, entry: &Entry, op: &Op) -> Result<(), String> {
    let key = key(entry, op.pass);
    let a = op.answer.as_ref().map_err(|e| format!("{key}: {e}"))?;
    if let Some(d) = a.defect() {
        return Err(format!("{key}: {d}"));
    }
    let exact = s.workload != Workload::McMesh;
    if !a.complete || a.certified != exact {
        return Err(format!(
            "{key}: expected a complete {} answer, got {a:?}",
            if exact { "certified" } else { "statistical" }
        ));
    }
    match s.refs.get(s.workload.name(), &key) {
        Some(want) => disagreement(a, want).map_or(Ok(()), |d| Err(format!("{key}: {d}"))),
        None => Ok(()),
    }
}

/// Re-derives a sample of the exact answers of the first pass with
/// independent configurations (about one entry in three).
fn cross_check(s: &Settings, entries: &[Entry], done: &[Op], checks: &mut Checks) {
    let texts = pass_texts(s.workload, entries, s.seed, 0);
    let stride = if s.smoke { 4 } else { 3 };
    for op in done
        .iter()
        .filter(|op| op.pass == 0 && (op.index as u64 + s.seed).is_multiple_of(stride))
    {
        let Ok(got) = &op.answer else { continue };
        let text = &texts[op.index];
        let verdict = cross_check_options().into_iter().find_map(|(label, o)| {
            match ops::solve(text, &Strategy::Auto, &o) {
                Ok(a) if a.complete => Some((label, a)),
                _ => None,
            }
        });
        let name = key(&entries[op.index], 0);
        match verdict {
            Some((label, want)) => checks.global(
                ((got.value - want.value).abs() <= EXACT_TOL)
                    .then_some(())
                    .ok_or_else(|| {
                        format!("{name}: {} but {label} gives {}", got.value, want.value)
                    }),
            ),
            None => eprintln!("{name}: no independent configuration finished; not cross-checked"),
        }
    }
}

/// The first timed operation must answer what the warm-up solve of the
/// same input answered, bit for bit.
fn repeatable(warm: &Result<Answer, String>, done: &[Op]) -> Result<(), String> {
    match (warm, done.first().map(|op| &op.answer)) {
        (Ok(w), Some(Ok(first))) if !w.same(first) => Err(format!(
            "the first operation answered {first:?}, its warm-up {w:?}"
        )),
        (Err(e), _) => Err(format!("warm-up: {e}")),
        _ => Ok(()),
    }
}

/// Share of Monte-Carlo 95% intervals that must cover the exact value.
const MIN_COVERAGE: f64 = 0.9;

/// Estimator calibration on small meshes the exact planner solves: at least
/// [`MIN_COVERAGE`] of the intervals must contain the exact value. The
/// estimator seeds are fixed, so the check cannot fail by chance on one
/// `--seed` and pass on another.
fn mc_coverage(smoke: bool) -> Result<(), String> {
    let (meshes, seeds) = if smoke { (2, 2) } else { (8, 4) };
    let mut covered = 0usize;
    let mut total = 0usize;
    for (i, e) in catalog::coverage_entries(meshes).iter().enumerate() {
        let text = e.text();
        let exact = ops::solve(&text, &Strategy::Auto, &ops::library_options())
            .map_err(|err| format!("coverage {}: {err}", e.name))?;
        for k in 0..seeds {
            let mut settings = ops::mc_settings(derive(i as u64, k));
            settings.target.rel_err = Some(COVERAGE_REL_ERR);
            let est = ops::solve(
                &text,
                &Strategy::MonteCarlo(settings),
                &ops::library_options(),
            )
            .map_err(|err| format!("coverage {}: {err}", e.name))?;
            total += 1;
            covered += usize::from(est.lo <= exact.value && exact.value <= est.hi);
        }
    }
    let share = covered as f64 / total as f64;
    eprintln!("mc-mesh: {covered} of {total} coverage intervals contain the exact value");
    (share >= MIN_COVERAGE).then_some(()).ok_or_else(|| {
        format!("only {covered} of {total} Monte-Carlo intervals cover the exact value")
    })
}

/// Relative-error target of the coverage estimations: looser than the
/// workload's, since coverage does not depend on the target and the check
/// must stay cheap.
const COVERAGE_REL_ERR: f64 = 0.1;
