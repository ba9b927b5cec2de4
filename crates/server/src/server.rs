//! The daemon: accept loop, per-connection sessions, budgeted compute.
//!
//! Threading model (no async runtime — the repo vendors no executor):
//!
//! * the **accept thread** polls a non-blocking listener every few
//!   milliseconds, checking the shutdown token between polls;
//! * each connection gets a **session thread** running a frame loop with a
//!   short socket read timeout as its polling interval — that is how idle
//!   and slow-loris deadlines, shutdown, and client disconnects are noticed
//!   without an event loop;
//! * a compute request runs on a **scoped worker thread**. The session
//!   thread's only wait is then the worker's channel, 10 ms at a time;
//!   between waits it takes whatever bytes have already arrived on the
//!   socket, without blocking. Pings and stats are answered mid-compute, EOF
//!   trips the request's [`CancelToken`] so an abandoned sweep stops within
//!   one budget poll instead of running to completion, and the reply leaves
//!   as soon as the worker hands it over.
//!
//! Robustness invariants the fault-injection suite pins down:
//!
//! * no input, timing, or disconnect may panic a session (panics in compute
//!   are caught, counted, and answered as `internal` errors);
//! * admission is bounded: at most `max_concurrent` computes, a bounded
//!   wait queue, everything else shed with a `retry_after_ms` hint;
//! * a drain (SIGTERM or `shutdown` RPC) parks every interrupted request
//!   under a resume token persisted to `state_dir`, and a restarted server
//!   resumes those tokens bit-identically.

use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flowrel_core::budget::{Budget, CancelToken};
use flowrel_core::checkpoint::{instance_fingerprint, Checkpoint};
use flowrel_core::{CalcOptions, Outcome, ReliabilityCalculator, Strategy};

use crate::admission::Admission;
use crate::cache::{CachedResult, InstanceCache};
use crate::conn::{BindAddr, Conn, Listener};
use crate::frame::{encode, FrameReader};
use crate::json::JsonLimits;
use crate::park::{ParkedSession, ParkingLot};
use crate::proto::{
    code, ComputeRequest, ProtoLimits, Request, Response, StatsSnapshot, StrategySpec, WireError,
};

/// Tuning knobs for one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`unix:/path` or `host:port`).
    pub addr: BindAddr,
    /// Maximum concurrent computing requests.
    pub max_concurrent: usize,
    /// Maximum admissions waiting for a slot before shedding.
    pub max_waiting: usize,
    /// Longest an admission may wait for a slot.
    pub max_wait: Duration,
    /// Deadline applied to requests that specify none.
    pub default_timeout: Duration,
    /// Hard ceiling any requested deadline is clamped to.
    pub max_timeout: Duration,
    /// A session is reaped after this long with no frame to answer; the
    /// clock restarts as each reply goes out.
    pub idle_timeout: Duration,
    /// A *partial* frame pending this long is a slow-loris: reaped.
    pub partial_frame_timeout: Duration,
    /// Maximum frame size accepted or produced.
    pub max_frame: usize,
    /// Per-field payload limits.
    pub proto_limits: ProtoLimits,
    /// JSON structural limits.
    pub json_limits: JsonLimits,
    /// Directory for parked-session persistence (`None`: in-memory only).
    pub state_dir: Option<std::path::PathBuf>,
    /// Entries per cache layer.
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: BindAddr::Tcp("127.0.0.1:0".into()),
            max_concurrent: 4,
            max_waiting: 16,
            max_wait: Duration::from_millis(500),
            default_timeout: Duration::from_secs(30),
            max_timeout: Duration::from_secs(300),
            idle_timeout: Duration::from_secs(60),
            partial_frame_timeout: Duration::from_secs(5),
            max_frame: 48 << 20,
            proto_limits: ProtoLimits::default(),
            json_limits: JsonLimits::default(),
            state_dir: None,
            cache_capacity: 64,
        }
    }
}

/// Monotonic counters exported via `stats`.
#[derive(Debug, Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
    panics: AtomicU64,
    active_sessions: AtomicU64,
}

/// State shared by every thread of one server.
struct Shared {
    config: ServerConfig,
    admission: Admission,
    cache: InstanceCache,
    lot: ParkingLot,
    counters: Counters,
    shutdown: CancelToken,
}

impl Shared {
    /// Fresh server state; restores parked sessions from `state_dir`.
    fn new(config: ServerConfig) -> std::io::Result<Shared> {
        Ok(Shared {
            admission: Admission::new(config.max_concurrent, config.max_waiting, config.max_wait),
            cache: InstanceCache::new(config.cache_capacity),
            lot: ParkingLot::new(config.state_dir.clone())?,
            counters: Counters::default(),
            shutdown: CancelToken::new(),
            config,
        })
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::begin_shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: BindAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The concrete bound address (`:0` resolved).
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Starts a graceful drain: stop accepting, interrupt in-flight
    /// requests (they park under resume tokens), let sessions close.
    /// Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.trip();
    }

    /// Whether a drain has begun.
    pub fn shutting_down(&self) -> bool {
        self.shared.shutdown.is_tripped()
    }

    /// A clone of the drain token, for wiring external shutdown sources
    /// (e.g. the signal handler): tripping it is `begin_shutdown`.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shared.shutdown.clone()
    }

    /// Current statistics.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.shared)
    }

    /// Waits for the accept loop (and every session) to finish. Returns
    /// only after [`Self::begin_shutdown`] (or a `shutdown` RPC) has fired.
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

fn snapshot(shared: &Shared) -> StatsSnapshot {
    let cc = shared.cache.counters();
    StatsSnapshot {
        active_sessions: shared.counters.active_sessions.load(Ordering::Relaxed),
        active_requests: shared.admission.active() as u64,
        served: shared.counters.served.load(Ordering::Relaxed),
        shed: shared.counters.shed.load(Ordering::Relaxed),
        protocol_errors: shared.counters.protocol_errors.load(Ordering::Relaxed),
        panics: shared.counters.panics.load(Ordering::Relaxed),
        parked: shared.lot.count() as u64,
        cache_hits: cc.hits,
        cache_misses: cc.misses,
        result_hits: cc.result_hits,
        result_hits_raw: cc.result_hits_raw,
        result_hits_reduced: cc.result_hits_reduced,
        shutting_down: shared.shutdown.is_tripped(),
    }
}

/// Binds and spawns the server.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = Listener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(config)?);
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("flowrel-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.is_tripped() {
        sessions.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok(Some(conn)) => {
                let sess_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("flowrel-session".into())
                    .spawn(move || session_loop(conn, sess_shared));
                match spawned {
                    Ok(h) => sessions.push(h),
                    Err(_) => { /* thread exhaustion: drop the connection */ }
                }
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    drop(listener); // close the socket before draining sessions
    for h in sessions {
        let _ = h.join();
    }
}

/// RAII active-session counter.
struct SessionGuard<'a>(&'a Counters);

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.0.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

fn send(conn: &mut Conn, shared: &Shared, resp: &Response) -> bool {
    match encode(&resp.to_json(), shared.config.max_frame) {
        Ok(bytes) => conn.write_all(&bytes).and_then(|_| conn.flush()).is_ok(),
        Err(_) => {
            // The reply itself is oversized (should be impossible for our own
            // responses under sane limits): degrade to a protocol error.
            let fallback = Response::Error(WireError::protocol("reply exceeded the frame limit"));
            if let Ok(bytes) = encode(&fallback.to_json(), shared.config.max_frame) {
                let _ = conn.write_all(&bytes);
            }
            false
        }
    }
}

fn session_loop(mut conn: Conn, shared: Arc<Shared>) {
    shared
        .counters
        .active_sessions
        .fetch_add(1, Ordering::Relaxed);
    let _guard = SessionGuard(&shared.counters);
    if conn
        .set_read_timeout(Some(Duration::from_millis(20)))
        .is_err()
        || conn
            .set_write_timeout(Some(Duration::from_secs(10)))
            .is_err()
    {
        return;
    }
    let mut reader = FrameReader::new(shared.config.max_frame, shared.config.json_limits);
    // Restarts when a frame has been answered, not when it arrived, so a
    // compute longer than `idle_timeout` never counts as idle time.
    let mut last_active = Instant::now();
    let mut partial_since: Option<Instant> = None;
    let mut buf = [0u8; 16 * 1024];
    loop {
        if shared.shutdown.is_tripped() {
            return; // drain: in-flight computes already finished parking
        }
        if last_active.elapsed() > shared.config.idle_timeout {
            return; // idle reaping
        }
        if let Some(t0) = partial_since {
            if t0.elapsed() > shared.config.partial_frame_timeout {
                // Slow loris: a frame has been dribbling in for too long.
                send(
                    &mut conn,
                    &shared,
                    &Response::Error(WireError::protocol("partial frame timed out")),
                );
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        match conn.read(&mut buf) {
            Ok(0) => return, // orderly EOF
            Ok(n) => reader.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
        loop {
            match reader.try_frame() {
                Ok(Some(frame)) => {
                    let keep_going = match Request::from_json(&frame, &shared.config.proto_limits) {
                        Ok(req) => handle_request(&mut conn, &shared, &mut reader, req),
                        Err(e) => {
                            shared
                                .counters
                                .protocol_errors
                                .fetch_add(1, Ordering::Relaxed);
                            send(&mut conn, &shared, &Response::Error(e))
                        }
                    };
                    last_active = Instant::now();
                    if !keep_going {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let reply =
                        Response::Error(WireError::new(code::PROTOCOL, "protocol", e.to_string()));
                    let sent = send(&mut conn, &shared, &reply);
                    if !e.recoverable() || !sent {
                        return; // stream no longer frame-aligned
                    }
                }
            }
        }
        partial_since = if reader.has_partial() {
            partial_since.or_else(|| Some(Instant::now()))
        } else {
            None
        };
    }
}

/// Handles one parsed request. Returns `false` when the session must close.
fn handle_request(
    conn: &mut Conn,
    shared: &Shared,
    reader: &mut FrameReader,
    req: Request,
) -> bool {
    match req {
        Request::Ping => send(conn, shared, &Response::Pong),
        Request::Stats => send(conn, shared, &Response::Stats(snapshot(shared))),
        Request::Shutdown => {
            let _ = send(conn, shared, &Response::ShuttingDown);
            shared.shutdown.trip();
            false
        }
        Request::Compute(c) => {
            let resp = serve_compute(conn, shared, reader, c);
            count_answer(shared, &resp);
            send(conn, shared, &resp)
        }
        Request::Resume { token } => {
            let resp = serve_resume(conn, shared, reader, &token);
            count_answer(shared, &resp);
            send(conn, shared, &resp)
        }
    }
}

/// Counts a compute or resume request in exactly one of `shed` (admission
/// refused it) and `served` (any other answer), so the two sum to the
/// requests received.
fn count_answer(shared: &Shared, resp: &Response) {
    let counter = match resp {
        Response::Error(e) if e.code == code::OVERLOADED => &shared.counters.shed,
        _ => &shared.counters.served,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

fn strategy_of(spec: &StrategySpec) -> Strategy {
    match spec {
        StrategySpec::Auto => Strategy::Auto,
        StrategySpec::Naive => Strategy::Naive,
        StrategySpec::Factoring => Strategy::Factoring,
        StrategySpec::Mc { seed, samples } => Strategy::MonteCarlo(montecarlo::McSettings {
            seed: *seed,
            target: montecarlo::StopTarget {
                max_samples: *samples,
                ..Default::default()
            },
            ..Default::default()
        }),
    }
}

/// Builds the per-request calculator: serial (bit-identical resume), with a
/// clamped deadline and the request's own cancel token.
fn calculator_for(
    shared: &Shared,
    spec: &StrategySpec,
    timeout_ms: Option<u64>,
    max_configs: Option<u64>,
    hybrid: bool,
    cancel: CancelToken,
) -> ReliabilityCalculator {
    let requested = timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.config.default_timeout);
    let deadline = requested.min(shared.config.max_timeout);
    ReliabilityCalculator {
        strategy: strategy_of(spec),
        options: CalcOptions {
            parallel: false,
            hybrid,
            budget: Budget {
                time_limit: Some(deadline),
                max_configs,
                cancel: Some(cancel),
            },
            ..Default::default()
        },
    }
}

/// Admission + the probed compute, shared by `compute` and `resume`.
///
/// `work` runs on a scoped worker thread. This (session) thread waits on the
/// worker's channel 10 ms at a time and returns the moment the result
/// arrives. Between waits it probes the socket without blocking: it takes
/// only bytes that have already arrived, answers pings and stats (heartbeat
/// stays alive through long computations), and trips `cancel` on client EOF
/// or server drain, so a dead client never keeps a sweep running. The probe
/// shares the session's [`FrameReader`], so frames straddling the compute
/// window stay aligned.
fn admit_and_run(
    conn: &mut Conn,
    shared: &Shared,
    reader: &mut FrameReader,
    cancel: &CancelToken,
    work: impl FnOnce() -> Response + Send,
) -> Response {
    if shared.shutdown.is_tripped() {
        return Response::Error(WireError::new(
            code::SHUTTING_DOWN,
            "shutting-down",
            "server is draining; no new work accepted",
        ));
    }
    let permit = match shared.admission.admit() {
        Ok(p) => p,
        Err(over) => {
            let mut e = WireError::new(
                code::OVERLOADED,
                "overloaded",
                "worker pool and wait queue are full",
            );
            e.retry_after_ms = Some(over.retry_after_ms);
            return Response::Error(e);
        }
    };
    let result = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Response>();
        let panics = &shared.counters.panics;
        s.spawn(move || {
            let resp = match catch_unwind(AssertUnwindSafe(work)) {
                Ok(r) => r,
                Err(_) => {
                    panics.fetch_add(1, Ordering::Relaxed);
                    Response::Error(WireError::new(
                        code::INTERNAL,
                        "internal",
                        "computation panicked; the fault was contained",
                    ))
                }
            };
            let _ = tx.send(resp);
        });
        let mut probe_buf = [0u8; 4096];
        loop {
            match rx.recv_timeout(Duration::from_millis(10)) {
                Ok(resp) => break resp,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break Response::Error(WireError::new(
                        code::INTERNAL,
                        "internal",
                        "worker vanished",
                    ))
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
            if shared.shutdown.is_tripped() {
                cancel.trip(); // drain: park at the next budget poll
            }
            match read_arrived(conn, &mut probe_buf) {
                Ok(0) => cancel.trip(), // client vanished mid-request
                Ok(n) => {
                    reader.push(&probe_buf[..n]);
                    probe_frames(conn, shared, reader, cancel);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => cancel.trip(),
            }
        }
    });
    drop(permit);
    result
}

/// Reads only bytes that have already arrived (`WouldBlock` when none have),
/// leaving the connection blocking again before anything is written to it.
fn read_arrived(conn: &mut Conn, buf: &mut [u8]) -> std::io::Result<usize> {
    conn.set_nonblocking(true)?;
    let read = conn.read(buf);
    conn.set_nonblocking(false)?;
    read
}

/// Drains frames arriving *during* a compute: pings keep the heartbeat
/// alive, anything else is refused (one request at a time per connection).
/// Fatal framing errors are treated like a disconnect — the sweep is
/// cancelled (it parks and stays resumable) and the read side is shut.
fn probe_frames(conn: &mut Conn, shared: &Shared, reader: &mut FrameReader, cancel: &CancelToken) {
    loop {
        match reader.try_frame() {
            Ok(None) => return,
            Ok(Some(frame)) => {
                let reply = match Request::from_json(&frame, &shared.config.proto_limits) {
                    Ok(Request::Ping) => Response::Pong,
                    Ok(Request::Stats) => Response::Stats(snapshot(shared)),
                    Ok(_) => {
                        Response::Error(WireError::protocol("one request at a time per connection"))
                    }
                    Err(e) => {
                        shared
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        Response::Error(e)
                    }
                };
                let _ = send(conn, shared, &reply);
            }
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let _ = send(
                    conn,
                    shared,
                    &Response::Error(WireError::new(code::PROTOCOL, "protocol", e.to_string())),
                );
                if !e.recoverable() {
                    cancel.trip();
                    let _ = conn.shutdown(std::net::Shutdown::Read);
                    return;
                }
            }
        }
    }
}

/// Wraps a finished outcome: caches completes, parks partials under a token.
///
/// `reduced_fingerprint` is the post-reduction instance fingerprint when the
/// calculator reduced and the reduction actually changed the instance;
/// complete answers are stored under it too, so a *different* raw instance
/// that reduces to the same shape is served from memory.
///
/// `trusted` says the run started here from scratch or from a checkpoint
/// this server wrote. A client's checkpoint can carry certificates no solve
/// produced, which no check of its sums catches, so an answer resumed from
/// one goes back to that client only: it is never cached, and a session it
/// parks stays untrusted through every later resume.
fn finish_outcome(
    shared: &Shared,
    outcome: Result<Outcome, flowrel_core::ReliabilityError>,
    fingerprint: u64,
    reduced_fingerprint: Option<u64>,
    strategy_key: &str,
    net_text: &str,
    trusted: bool,
) -> Response {
    match outcome {
        Err(e) => Response::Error(WireError::reliability(&e)),
        Ok(Outcome::Complete(rep)) => {
            // `store_result` shelves by the label: a statistical complete
            // lands on its own shelf and can never displace a certified
            // answer already cached for this fingerprint.
            if trusted {
                let reduced = reduced_fingerprint.filter(|&rfp| rfp != fingerprint);
                for fp in std::iter::once(fingerprint).chain(reduced) {
                    shared.cache.store_result(
                        fp,
                        strategy_key,
                        CachedResult {
                            reliability: rep.reliability,
                            algorithm: rep.algorithm.to_string(),
                            certified: rep.certified,
                        },
                    );
                }
            }
            Response::Complete {
                reliability: rep.reliability,
                algorithm: rep.algorithm.to_string(),
                cached: false,
                certified: rep.certified,
            }
        }
        Ok(Outcome::Partial(p)) => {
            let token = shared.lot.mint_token(fingerprint);
            let checkpoint_text = p.checkpoint.to_text();
            let parked = ParkedSession {
                token: token.clone(),
                strategy_key: strategy_key.to_string(),
                net_text: net_text.to_string(),
                checkpoint_text: checkpoint_text.clone(),
                from_client: !trusted,
            };
            if shared.lot.park(parked).is_err() {
                // Disk refused the parked session: the client still gets the
                // checkpoint text and can resume client-side.
            }
            Response::Partial {
                r_low: p.r_low,
                r_high: p.r_high,
                explored: p.explored,
                algorithm: p.algorithm.to_string(),
                token,
                checkpoint: checkpoint_text,
                certified: p.certified,
            }
        }
    }
}

fn serve_compute(
    conn: &mut Conn,
    shared: &Shared,
    reader: &mut FrameReader,
    req: ComputeRequest,
) -> Response {
    let parsed = match shared.cache.parse(&req.net) {
        Ok(p) => p,
        Err(e) => {
            return Response::Error(WireError::new(
                code::PARSE,
                "parse",
                format!("line {}: {}", e.line, e.message),
            ))
        }
    };
    let Some(demand) = parsed.demand else {
        return Response::Error(WireError::usage("network description has no 'demand' line"));
    };
    let checkpoint = match &req.checkpoint {
        None => None,
        Some(text) => match Checkpoint::from_text(text) {
            Ok(ck) => Some(ck),
            Err(e) => return Response::Error(WireError::reliability(&e)),
        },
    };
    let cancel = CancelToken::new();
    let calc = calculator_for(
        shared,
        &req.strategy,
        req.timeout_ms,
        req.max_configs,
        req.hybrid,
        cancel.clone(),
    );
    let strategy_key = req.strategy.key();
    // A statistical cached answer is only acceptable to requests that opted
    // into sampling; everyone gets certified answers.
    let accept_statistical = req.hybrid || matches!(req.strategy, StrategySpec::Mc { .. });
    let fingerprint = instance_fingerprint(&parsed.net, &demand, &calc.options);
    // A cached complete answer short-circuits admission entirely — cheap
    // service stays available even when the pool is saturated. Fresh runs
    // (and anything carrying a checkpoint) go through the pool. The raw
    // fingerprint is tried first (free); on a miss, the post-reduction
    // fingerprint catches clients resending instances that are structurally
    // equivalent after capacity clamping, pruning, and merging — the
    // reduction costs a few min-cuts, far below any sweep it saves.
    let mut reduced_fingerprint = None;
    if checkpoint.is_none() {
        if let Some(hit) = shared
            .cache
            .result(fingerprint, &strategy_key, accept_statistical)
        {
            return Response::Complete {
                reliability: hit.reliability,
                algorithm: hit.algorithm,
                cached: true,
                certified: hit.certified,
            };
        }
        if calc.options.reduce && demand.validate(&parsed.net).is_ok() {
            let red = flowrel_core::reduce(&parsed.net, demand, true, calc.options.solver);
            if !red.is_identity() {
                let rfp = instance_fingerprint(&red.net, &red.demand, &calc.options);
                reduced_fingerprint = Some(rfp);
                if let Some(hit) =
                    shared
                        .cache
                        .result_reduced(rfp, &strategy_key, accept_statistical)
                {
                    return Response::Complete {
                        reliability: hit.reliability,
                        algorithm: hit.algorithm,
                        cached: true,
                        certified: hit.certified,
                    };
                }
            }
        }
    }
    let net = Arc::clone(&parsed);
    admit_and_run(conn, shared, reader, &cancel, move || {
        let result = match &checkpoint {
            None => calc.run(&net.net, demand),
            Some(ck) => calc.resume(&net.net, demand, ck),
        };
        finish_outcome(
            shared,
            result,
            fingerprint,
            reduced_fingerprint,
            &strategy_key,
            &req.net,
            checkpoint.is_none(),
        )
    })
}

fn serve_resume(
    conn: &mut Conn,
    shared: &Shared,
    reader: &mut FrameReader,
    token: &str,
) -> Response {
    let Some(parked) = shared.lot.take(token) else {
        return Response::Error(WireError::new(
            code::UNKNOWN_TOKEN,
            "unknown-token",
            format!("no parked session '{token}' (already resumed, or never parked here)"),
        ));
    };
    let Some(spec) = StrategySpec::from_key(&parked.strategy_key) else {
        return Response::Error(WireError::new(
            code::INTERNAL,
            "internal",
            "parked session carries an unknown strategy key",
        ));
    };
    let parsed = match shared.cache.parse(&parked.net_text) {
        Ok(p) => p,
        Err(e) => {
            return Response::Error(WireError::new(
                code::PARSE,
                "parse",
                format!(
                    "parked network no longer parses (line {}): {}",
                    e.line, e.message
                ),
            ))
        }
    };
    let Some(demand) = parsed.demand else {
        return Response::Error(WireError::new(
            code::INTERNAL,
            "internal",
            "parked session lost its demand line",
        ));
    };
    let checkpoint = match Checkpoint::from_text(&parked.checkpoint_text) {
        Ok(ck) => ck,
        Err(e) => return Response::Error(WireError::reliability(&e)),
    };
    let cancel = CancelToken::new();
    // Resume does not need the request's hybrid flag: the calculator pins
    // `hybrid` from the checkpoint itself, keeping the resumed run
    // bit-identical to the interrupted one.
    let calc = calculator_for(shared, &spec, None, None, false, cancel.clone());
    let strategy_key = parked.strategy_key.clone();
    let fingerprint = instance_fingerprint(&parsed.net, &demand, &calc.options);
    let reparked = parked.clone();
    let net = Arc::clone(&parsed);
    let resp = admit_and_run(conn, shared, reader, &cancel, move || {
        let result = calc.resume(&net.net, demand, &checkpoint);
        finish_outcome(
            shared,
            result,
            fingerprint,
            None,
            &strategy_key,
            &parked.net_text,
            !parked.from_client,
        )
    });
    // If admission shed the resume (or the server was draining), the claimed
    // session would otherwise be lost: put it back so the token stays valid.
    if let Response::Error(e) = &resp {
        if e.code == code::OVERLOADED || e.code == code::SHUTTING_DOWN {
            let _ = shared.lot.put_back(reparked);
        }
    }
    resp
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    /// The reply leaves when the worker hands it over, not when a socket read
    /// times out: with the session's 20 ms read timeout on the socket and an
    /// open but silent client, a 15 ms compute returns well before the
    /// 10 + 20 ms that one channel wait plus one blocking read would take.
    #[test]
    fn admit_and_run_returns_when_the_work_ends() {
        let shared = Shared::new(ServerConfig::default()).unwrap();
        let fast = (0..5)
            .filter(|_| {
                let (server_end, _client_end) = UnixStream::pair().unwrap();
                server_end
                    .set_read_timeout(Some(Duration::from_millis(20)))
                    .unwrap();
                let mut conn = Conn::Unix(server_end);
                let mut reader =
                    FrameReader::new(shared.config.max_frame, shared.config.json_limits);
                let cancel = CancelToken::new();
                let t0 = Instant::now();
                let resp = admit_and_run(&mut conn, &shared, &mut reader, &cancel, || {
                    std::thread::sleep(Duration::from_millis(15));
                    Response::Pong
                });
                let elapsed = t0.elapsed();
                assert_eq!(resp, Response::Pong);
                assert!(
                    !cancel.is_tripped(),
                    "a silent client is not a vanished one"
                );
                elapsed < Duration::from_millis(25)
            })
            .count();
        assert!(fast >= 4, "only {fast} of 5 replies returned within 25 ms");
    }
}
