//! The `overlay-serve` workload: per-subscriber queries sent to an in-process
//! `flowrel-server` (default configuration, parked sessions persisted to a
//! state directory) over two loopback connections.
//!
//! Load is an open loop: Poisson arrivals at [`RATE`] requests per second
//! for `--seconds`, each request timed from when it was due, so a stall also
//! counts against the requests queued behind it. A quarter of the requests
//! repeat one of the 32 most recent distinct queries. Latencies here are
//! wall time as the client sees it, not scaled to a reference speed: much
//! of a reply's time is the server's polling, which does not run faster on
//! a faster CPU; set-up, which mostly waits for the server's accept poll,
//! is not scaled either.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use flowrel_server::{
    start, Client, ComputeRequest, Response, ServerConfig, ServerHandle, StrategySpec,
};

use crate::catalog::{self, derive, Entry, Rng, Workload};
use crate::clock;
use crate::ops::{self, Answer};
use crate::refs::disagreement;
use crate::stats::{self, quantile};
use crate::trace::TraceRun;
use crate::{peak_rss_mb, Checks, Metric, Run, Settings};

/// Offered load, requests per second.
pub const RATE: f64 = 20.0;

/// Share of requests that repeat a recent query.
pub const REPEAT_SHARE: f64 = 0.25;

/// How many of the most recent distinct queries a repeat picks from.
pub const REPEAT_WINDOW: usize = 32;

/// Client connections, one load thread each.
pub const CONNECTIONS: usize = 2;

/// One request of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When it is due, from the start of the load.
    pub due: Duration,
    /// Which catalogue query it sends.
    pub query: usize,
    /// Whether it repeats a recent query.
    pub repeat: bool,
}

/// The open-loop schedule: `rate · seconds` arrivals placed uniformly at
/// random in `[0, seconds)` (a Poisson process given its count, so every
/// seed offers the same load). Each arrival is, with probability
/// [`REPEAT_SHARE`], one of the [`REPEAT_WINDOW`] most recent distinct
/// queries, and otherwise the next query of a seeded permutation of the
/// `queries` catalogue entries.
pub fn schedule(seed: u64, queries: usize, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(derive(seed, 0x5C4E_D01E));
    let mut order: Vec<usize> = (0..queries).collect();
    for i in (1..queries).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let count = if queries == 0 {
        0
    } else {
        (rate * seconds).round() as usize
    };
    let mut times: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut recent: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    times
        .into_iter()
        .map(|t| {
            let repeat = !recent.is_empty() && rng.unit() < REPEAT_SHARE;
            let query = if repeat {
                recent[rng.below(recent.len() as u64) as usize]
            } else {
                let q = order[next % queries];
                next += 1;
                recent.retain(|&r| r != q);
                recent.push_back(q);
                if recent.len() > REPEAT_WINDOW {
                    recent.pop_front();
                }
                q
            };
            Arrival {
                due: Duration::from_secs_f64(t),
                query,
                repeat,
            }
        })
        .collect()
}

/// The catalogue's query texts for `seed`.
fn texts(entries: &[Entry], seed: u64) -> Vec<String> {
    entries.iter().map(|e| e.reweighted(seed)).collect()
}

/// Where the server parks sessions: beside the benchmark's executable, so a
/// run writes nothing outside its build directory.
fn state_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe.parent().ok_or("the executable has no directory")?;
    Ok(dir.join(format!("bench_e2e-state-{}", std::process::id())))
}

/// A started server with its connected clients.
struct Live {
    server: ServerHandle,
    clients: Vec<Client>,
}

impl Live {
    /// Starts a server and returns once every client has been answered.
    ///
    /// The server's accept thread polls every 5 ms. Connecting 1 ms after
    /// the start puts the clients behind that first poll every time, so
    /// set-up times the server's poll instead of a race against its accept
    /// thread starting up.
    fn start(state_dir: &std::path::Path) -> Result<Live, String> {
        let config = ServerConfig {
            state_dir: Some(state_dir.to_path_buf()),
            ..ServerConfig::default()
        };
        let server = start(config).map_err(|e| format!("starting the server: {e}"))?;
        std::thread::sleep(Duration::from_millis(1));
        let mut clients = Vec::new();
        for _ in 0..CONNECTIONS {
            clients.push(Client::connect(server.addr()).map_err(|e| format!("connecting: {e}"))?);
        }
        for c in &mut clients {
            c.ping().map_err(|e| format!("ping: {e}"))?;
        }
        Ok(Live { server, clients })
    }

    fn stop(self) {
        drop(self.clients);
        self.server.begin_shutdown();
        self.server.join();
    }
}

/// What one request got back.
struct Reply {
    arrival: Arrival,
    /// Milliseconds from due to sent.
    lag_ms: f64,
    /// Milliseconds from sent to the reply.
    service_ms: f64,
    cached: bool,
    answer: Result<Answer, String>,
}

impl Reply {
    fn latency_ms(&self) -> f64 {
        self.lag_ms + self.service_ms
    }
}

fn answer_of(resp: Response) -> Result<(Answer, bool), String> {
    match resp {
        Response::Complete {
            reliability,
            cached,
            certified,
            ..
        } => Ok((
            Answer {
                complete: true,
                certified,
                value: reliability,
                lo: reliability,
                hi: reliability,
            },
            cached,
        )),
        Response::Partial {
            r_low,
            r_high,
            certified,
            ..
        } => Ok((Answer::partial(certified, r_low, r_high), false)),
        Response::Error(e) => Err(format!("server error: {e}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// Sends the schedule over the live connections, each connection taking
/// the next due request when it is free.
fn replay(live: &mut Live, texts: &[String], schedule: &[Arrival]) -> (Vec<Reply>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|sc| {
        let workers: Vec<_> = live
            .clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                sc.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&arrival) = schedule.get(i) else {
                            return out;
                        };
                        let req = ComputeRequest {
                            net: texts[arrival.query].clone(),
                            strategy: StrategySpec::Auto,
                            timeout_ms: None,
                            max_configs: Some(ops::SERVE_MAX_CONFIGS),
                            hybrid: false,
                            checkpoint: None,
                        };
                        let due = start + arrival.due;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let resp = client.compute(req);
                        let done = Instant::now();
                        let (answer, cached) =
                            match resp.map_err(|e| e.to_string()).and_then(answer_of) {
                                Ok((a, cached)) => (Ok(a), cached),
                                Err(e) => (Err(e), false),
                            };
                        out.push(Reply {
                            arrival,
                            lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            service_ms: (done - sent).as_secs_f64() * 1e3,
                            cached,
                            answer,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a load thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    replies.sort_by_key(|r| r.arrival.due);
    (replies, wall)
}

/// Runs the `overlay-serve` workload.
pub fn run(s: &Settings) -> Result<Run, String> {
    let dir = state_dir()?;
    let _ = std::fs::remove_dir_all(&dir);
    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    let mut entries = Vec::new();
    let mut query_texts = Vec::new();
    for _ in 0..s.setup_reps() {
        if let Some(l) = live.take() {
            l.stop();
        }
        let t0 = Instant::now();
        entries = catalog::entries(Workload::OverlayServe, s.smoke);
        query_texts = texts(&entries, s.seed);
        live = Some(Live::start(&dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut live = live.ok_or("no setup ran")?;
    let arrivals = schedule(s.seed, entries.len(), RATE, s.seconds);

    // traced: compute every distinct query in-process first, sequentially
    let mut traced = s.trace.then(TraceRun::new);
    let mut local: HashMap<usize, Result<Answer, String>> = HashMap::new();
    let mut compute_ms: HashMap<usize, f64> = HashMap::new();
    let mut cals = Vec::new();
    if let Some(t) = traced.as_mut() {
        for a in &arrivals {
            if !local.contains_key(&a.query) {
                cals.push(clock::calibrate());
                let op = local.len() as u32;
                let (answer, ms) = t.record(
                    op,
                    &query_texts[a.query],
                    &flowrel_core::Strategy::Auto,
                    &ops::server_options(),
                );
                local.insert(a.query, answer);
                compute_ms.insert(a.query, ms);
            }
        }
    }

    let (replies, wall) = replay(&mut live, &query_texts, &arrivals);
    let peak_rss = peak_rss_mb();
    let counted = match live.clients[0].stats() {
        Ok(Response::Stats(st)) => Ok(st),
        other => Err(format!("stats request: {other:?}")),
    };
    live.stop();
    let _ = std::fs::remove_dir_all(&dir);

    let mut checks = Checks::default();
    let mut first: HashMap<usize, Answer> = HashMap::new();
    for r in &replies {
        let name = &entries[r.arrival.query].name;
        checks.op(check_reply(s, name, r, &mut first));
    }
    let counted = counted?;
    checks.global(
        (counted.served + counted.shed == replies.len() as u64 && counted.panics == 0)
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "server counted {} served + {} shed of {} sent, {} panics",
                    counted.served,
                    counted.shed,
                    replies.len(),
                    counted.panics
                )
            }),
    );
    // the served answers equal what the library computes in-process: all of
    // them when traced, otherwise every eighth distinct query
    let sampled: Vec<usize> = if traced.is_some() {
        local.keys().copied().collect()
    } else {
        let mut seen: Vec<usize> = Vec::new();
        for a in &arrivals {
            if !seen.contains(&a.query) {
                seen.push(a.query);
            }
        }
        seen.into_iter().step_by(8).collect()
    };
    for q in sampled {
        let Some(served) = first.get(&q) else {
            continue;
        };
        let computed = match local.remove(&q) {
            Some(a) => a,
            None => ops::solve(
                &query_texts[q],
                &flowrel_core::Strategy::Auto,
                &ops::server_options(),
            ),
        };
        checks.global(match computed {
            Ok(a) if a.same(served) => Ok(()),
            other => Err(format!(
                "{}: served {served:?}, in-process {other:?}",
                entries[q].name
            )),
        });
    }

    let n = replies.len().max(1) as f64;
    let metrics = match traced {
        Some(mut t) => {
            // reply latency beyond the in-process compute of the same query
            let (mut overhead, mut service) = (0.0, 0.0);
            for r in replies.iter().filter(|r| !r.cached) {
                if let Some(ms) = compute_ms.get(&r.arrival.query) {
                    overhead += r.service_ms - ms;
                    service += r.service_ms;
                }
            }
            t.serve.overhead_share = overhead / service.max(f64::MIN_POSITIVE);
            t.serve.result_hit_rate = replies.iter().filter(|r| r.cached).count() as f64 / n;
            t.serve.shed = counted.shed;
            t.serve.parked = counted.parked;
            t.serve.late_frac = replies.iter().filter(|r| r.lag_ms > 1.0).count() as f64 / n;
            if let Some(path) = &s.trace_out {
                checks.global(t.tracer.write(path).map_err(|e| format!("{path}: {e}")));
            }
            t.metrics(clock::factor(&cals))
        }
        None => {
            let latencies: Vec<f64> = replies
                .iter()
                .map(|r| {
                    if r.answer.is_ok() {
                        r.latency_ms()
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            if stats::tail_percentile(latencies.len()).is_none_or(|p| p < 90.0) {
                eprintln!(
                    "overlay-serve: only {} requests; p90 leaves fewer than ten beyond it",
                    latencies.len()
                );
            }
            // per distinct query: which requests repeat a query is drawn
            // from the seed, what a query answers is not
            let completes = first.values().filter(|a| a.complete).count();
            let queries = first.len().max(1) as f64;
            vec![
                Metric::new("setup_s", stats::median(&setups), "s"),
                Metric::new("op_ms_p50", quantile(&latencies, 0.5), "ms"),
                Metric::new("op_ms_p90", quantile(&latencies, 0.9), "ms"),
                Metric::new("ops_per_s", replies.len() as f64 / wall, "1/s"),
                Metric::new("complete_frac", completes as f64 / queries, "frac"),
                Metric::new("peak_rss_mb", peak_rss, "MB"),
            ]
        }
    };
    eprintln!(
        "overlay-serve: {} requests ({} repeats, {} cached, {} complete), generator lag p90 {:.2} ms",
        replies.len(),
        replies.iter().filter(|r| r.arrival.repeat).count(),
        replies.iter().filter(|r| r.cached).count(),
        replies.iter().filter(|r| r.answer.as_ref().is_ok_and(|a| a.complete)).count(),
        quantile(&replies.iter().map(|r| r.lag_ms).collect::<Vec<_>>(), 0.9)
    );
    Ok(checks.finish(metrics))
}

/// Checks one reply: an answer, well formed, certified, the same as every
/// earlier reply to the same query, and within the reference.
fn check_reply(
    s: &Settings,
    name: &str,
    r: &Reply,
    first: &mut HashMap<usize, Answer>,
) -> Result<(), String> {
    let a = r.answer.as_ref().map_err(|e| format!("{name}: {e}"))?;
    if let Some(d) = a.defect() {
        return Err(format!("{name}: {d}"));
    }
    if !a.certified {
        return Err(format!("{name}: expected a certified answer, got {a:?}"));
    }
    let earlier = *first.entry(r.arrival.query).or_insert(*a);
    if !earlier.same(a) {
        return Err(format!("{name}: answered {a:?} after {earlier:?}"));
    }
    match s.refs.get(Workload::OverlayServe.name(), name) {
        Some(want) => disagreement(a, want).map_or(Ok(()), |d| Err(format!("{name}: {d}"))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seed_deterministic() {
        let a = schedule(7, 240, RATE, 12.0);
        assert_eq!(a, schedule(7, 240, RATE, 12.0));
        assert_ne!(a, schedule(8, 240, RATE, 12.0));
        // RATE · seconds arrivals, in due order, inside the window
        assert_eq!(a.len(), 240);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.due < Duration::from_secs(12)));
    }

    #[test]
    fn repeats_come_from_the_recent_window() {
        let a = schedule(3, 240, RATE, 12.0);
        let repeats = a.iter().filter(|x| x.repeat).count();
        let share = repeats as f64 / a.len() as f64;
        assert!((0.15..0.35).contains(&share), "repeat share {share}");
        let mut distinct: Vec<usize> = Vec::new();
        for x in &a {
            if x.repeat {
                let window = &distinct[distinct.len().saturating_sub(REPEAT_WINDOW)..];
                assert!(
                    window.contains(&x.query),
                    "repeat of {} outside the window",
                    x.query
                );
            } else {
                assert!(
                    !distinct.contains(&x.query),
                    "fresh query {} seen before",
                    x.query
                );
                distinct.push(x.query);
            }
        }
    }
}
