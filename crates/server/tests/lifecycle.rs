//! Full-lifecycle test for the daemon: concurrent mixed-deadline traffic,
//! SIGTERM-style drain with in-flight work, crash-safe restart from the
//! state directory, and bit-identical resume of every parked session.
//!
//! The drain path is exercised exactly as the signal handler drives it
//! (`ServerHandle::begin_shutdown` is what the SIGTERM bridge trips), so the
//! test covers the same state machine without needing to fork a process.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use flowrel_core::{fnet, FlowDemand, ReliabilityCalculator, Strategy};
use flowrel_server::proto::code;
use flowrel_server::server::{start, ServerConfig, ServerHandle};
use flowrel_server::{Client, ComputeRequest, Request, Response, StrategySpec};
use workloads::grid;

/// A grid instance as `.fnet` text plus its exact naive reliability.
fn instance(w: usize, h: usize, seed: u64) -> (String, f64) {
    let inst = grid(w, h, seed);
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let text = fnet::serialize(&inst.net, Some(demand));
    let reference = ReliabilityCalculator::new()
        .with_strategy(Strategy::Naive)
        .run_complete(&inst.net, demand)
        .unwrap()
        .reliability;
    (text, reference)
}

/// The 4×4 grid: 24 edges, ~17M configs, a naive sweep of hundreds of
/// milliseconds — long enough to send frames while it runs.
fn big() -> &'static (String, f64) {
    static BIG: OnceLock<(String, f64)> = OnceLock::new();
    BIG.get_or_init(|| instance(4, 4, 5))
}

/// Waits until the server has admitted a request.
fn wait_admitted(server: &ServerHandle) {
    let t0 = Instant::now();
    while server.stats().active_requests == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "request never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn assert_exact(resp: Response, reference: f64) {
    match resp {
        Response::Complete { reliability, .. } => {
            assert_eq!(reliability.to_bits(), reference.to_bits());
        }
        other => panic!("expected Complete, got {other:?}"),
    }
}

fn naive_compute(net: String) -> ComputeRequest {
    ComputeRequest {
        net,
        strategy: StrategySpec::Naive,
        timeout_ms: Some(120_000),
        max_configs: None,
        hybrid: false,
        checkpoint: None,
    }
}

fn temp_state_dir() -> PathBuf {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    std::env::temp_dir().join(format!("flowrel-lifecycle-{}-{nanos}", std::process::id()))
}

fn config(state_dir: PathBuf) -> ServerConfig {
    ServerConfig {
        state_dir: Some(state_dir),
        max_concurrent: 3,
        ..ServerConfig::default()
    }
}

/// Two byte-distinct instances whose only difference — slack capacity on the
/// first hop — the structural reduction's capacity clamp erases: the second
/// ask must be served from the result cache under the post-reduction
/// fingerprint, and the stats must attribute the hit to the reduced key.
#[test]
fn reduction_unifies_structurally_equivalent_instances_in_the_cache() {
    let server = start(ServerConfig::default()).unwrap();
    let addr = server.addr().clone();
    let net_a = "directed\nnodes 3\nedge 0 1 5 0.9\nedge 1 2 1 0.8\ndemand 0 2 1\n";
    let net_b = "directed\nnodes 3\nedge 0 1 9 0.9\nedge 1 2 1 0.8\ndemand 0 2 1\n";
    let mut client = Client::connect(&addr).unwrap();
    let mut ask = |net: &str| match client.compute(naive_compute(net.to_string())).unwrap() {
        Response::Complete {
            reliability,
            cached,
            ..
        } => (reliability, cached),
        other => panic!("expected Complete, got {other:?}"),
    };
    let (r_a, cached_a) = ask(net_a);
    assert!(!cached_a, "first ask cannot be a cache hit");
    let (r_b, cached_b) = ask(net_b);
    assert!(
        cached_b,
        "net_b clamps to net_a's reduced shape and must hit the result cache"
    );
    assert_eq!(r_a.to_bits(), r_b.to_bits());
    let (_, cached_raw) = ask(net_a);
    assert!(cached_raw, "identical retransmit hits under the raw key");
    let stats = server.stats();
    assert_eq!(
        (
            stats.result_hits,
            stats.result_hits_raw,
            stats.result_hits_reduced
        ),
        (2, 1, 1),
        "one raw hit, one reduced hit"
    );
    server.begin_shutdown();
    server.join();
}

/// Multi-state instances travel the wire as `spectrum` lines; the instance
/// fingerprint is stamped over the full state space, so two instances that
/// differ only in a state probability never share a cache entry, while an
/// identical retransmit still hits.
#[test]
fn multistate_instances_travel_the_wire_and_fingerprint_distinctly() {
    let server = start(ServerConfig::default()).unwrap();
    let addr = server.addr().clone();
    let net_a = "directed\nnodes 3\nspectrum 0 1 0:0.2 1:0.3 2:0.5\nedge 1 2 2 0.1\ndemand 0 2 2\n";
    let net_b = "directed\nnodes 3\nspectrum 0 1 0:0.3 1:0.2 2:0.5\nedge 1 2 2 0.1\ndemand 0 2 2\n";
    let reference = |text: &str| {
        let f = fnet::parse(text).unwrap();
        ReliabilityCalculator::new()
            .with_strategy(Strategy::Naive)
            .run_complete(&f.net, f.demand.unwrap())
            .unwrap()
            .reliability
    };
    let ref_a = reference(net_a);
    let ref_b = reference(net_b);
    // demand 2 needs the spectrum link's top state and the binary link up
    assert!((ref_a - 0.45).abs() < 1e-12);
    assert!((ref_b - 0.45).abs() < 1e-12);
    let mut client = Client::connect(&addr).unwrap();
    let mut ask = |net: &str| match client.compute(naive_compute(net.to_string())).unwrap() {
        Response::Complete {
            reliability,
            cached,
            ..
        } => (reliability, cached),
        other => panic!("expected Complete, got {other:?}"),
    };
    let (r_a, cached_a) = ask(net_a);
    assert_eq!(r_a, ref_a, "wire answer must equal the local exact answer");
    assert!(!cached_a);
    let (r_b, cached_b) = ask(net_b);
    assert_eq!(r_b, ref_b);
    assert!(
        !cached_b,
        "a different state probability must change the fingerprint"
    );
    let (_, cached_again) = ask(net_a);
    assert!(cached_again, "identical retransmit hits the result cache");
    server.begin_shutdown();
    server.join();
}

#[test]
fn drain_restart_resume_is_bit_identical() {
    let state_dir = temp_state_dir();
    let server = start(config(state_dir.clone())).unwrap();
    let addr = server.addr().clone();

    // Small instances: 12 edges, 4096 configs — exact answers in
    // milliseconds. The big instance: 24 edges, ~17M configs — a sweep of
    // hundreds of milliseconds, still running when the drain begins.
    let (small_net, small_ref) = instance(3, 3, 5);
    let (park_a_net, park_a_ref) = instance(3, 3, 1);
    let (park_b_net, park_b_ref) = instance(3, 3, 2);
    let (big_net, big_ref) = big().clone();

    // Phase 1: mixed-deadline traffic against the live server.
    // An unbudgeted request completes with the exact answer...
    let mut client = Client::connect(&addr).unwrap();
    match client.compute(naive_compute(small_net.clone())).unwrap() {
        Response::Complete {
            reliability,
            cached,
            ..
        } => {
            assert_eq!(reliability, small_ref, "server answer must be exact");
            assert!(!cached, "first ask cannot be a cache hit");
        }
        other => panic!("expected Complete, got {other:?}"),
    }

    // ...while config-budgeted requests on two distinct instances come back
    // partial, each with certified bounds and its own resume token.
    let park = |net: &str, reference: f64| -> String {
        let mut c = Client::connect(&addr).unwrap();
        let resp = c
            .compute(ComputeRequest {
                max_configs: Some(64),
                ..naive_compute(net.to_string())
            })
            .unwrap();
        match resp {
            Response::Partial {
                r_low,
                r_high,
                explored,
                token,
                ..
            } => {
                assert!(
                    r_low <= reference && reference <= r_high,
                    "bounds [{r_low}, {r_high}] must bracket {reference}"
                );
                assert!(explored < 1.0);
                token
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    };
    let token_a = park(&park_a_net, park_a_ref);
    let token_b = park(&park_b_net, park_b_ref);
    assert_ne!(token_a, token_b, "every parked session gets its own token");

    // Phase 2: drain with a long request in flight. The client thread holds
    // the connection; the main thread waits for admission, then trips the
    // same token the SIGTERM handler would.
    let big_clone = big_net.clone();
    let big_addr = addr.clone();
    let big_thread = std::thread::spawn(move || {
        let mut c = Client::connect(&big_addr).unwrap();
        c.compute(naive_compute(big_clone)).unwrap()
    });
    wait_admitted(&server);
    std::thread::sleep(Duration::from_millis(30));
    server.begin_shutdown();

    // The in-flight request is interrupted, parked, and answered — the
    // client is not just hung up on.
    let token_big = match big_thread.join().unwrap() {
        Response::Partial {
            r_low,
            r_high,
            token,
            ..
        } => {
            assert!(
                r_low <= big_ref && big_ref <= r_high,
                "drain bounds [{r_low}, {r_high}] must bracket {big_ref}"
            );
            Some(token)
        }
        // On a very fast machine the sweep may have finished first.
        Response::Complete { reliability, .. } => {
            assert_eq!(reliability, big_ref);
            None
        }
        other => panic!("expected Partial or Complete at drain, got {other:?}"),
    };
    eprintln!("drain outcome: token_big = {token_big:?}");
    assert_eq!(server.stats().panics, 0);
    server.join();

    // Phase 3: restart against the same state directory — a new process
    // image, same disk. Every parked session must have survived.
    let server = start(config(state_dir.clone())).unwrap();
    let addr = server.addr().clone();
    let expected_parked = 2 + u64::from(token_big.is_some());
    assert_eq!(server.stats().parked, expected_parked);

    // Phase 4: resume each token; the completed answers must be exactly the
    // serial reference values — bit-identical, not merely close.
    let resume_exact = |token: &str, reference: f64| {
        let mut c = Client::connect(&addr).unwrap();
        match c.resume(token).unwrap() {
            Response::Complete { reliability, .. } => {
                assert_eq!(
                    reliability.to_bits(),
                    reference.to_bits(),
                    "resume must be bit-identical: {reliability} vs {reference}"
                );
            }
            other => panic!("expected Complete from resume, got {other:?}"),
        }
    };
    resume_exact(&token_a, park_a_ref);
    resume_exact(&token_b, park_b_ref);
    if let Some(token) = &token_big {
        resume_exact(token, big_ref);
    }
    assert_eq!(server.stats().parked, 0, "resumed sessions leave the lot");

    // A second identical ask is served from the result cache.
    let mut client = Client::connect(&addr).unwrap();
    for expect_cached in [false, true] {
        match client.compute(naive_compute(small_net.clone())).unwrap() {
            Response::Complete {
                reliability,
                cached,
                ..
            } => {
                assert_eq!(reliability, small_ref);
                assert_eq!(cached, expect_cached);
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    // Phase 5: shutdown over the wire; join must return.
    assert!(matches!(
        client.shutdown_server().unwrap(),
        Response::ShuttingDown
    ));
    assert_eq!(server.stats().panics, 0);
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// The idle clock restarts when a reply goes out: a compute far longer than
/// `idle_timeout` does not cost the client its connection, while a session
/// that then really sits idle is still reaped.
#[test]
fn a_compute_longer_than_the_idle_timeout_keeps_its_connection() {
    let (big_net, big_ref) = big();
    let server = start(ServerConfig {
        idle_timeout: Duration::from_millis(50),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_exact(
        client.compute(naive_compute(big_net.clone())).unwrap(),
        *big_ref,
    );
    client
        .ping()
        .expect("the session must outlive a compute longer than idle_timeout");
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        client.ping().is_err(),
        "an idle session must still be reaped"
    );
    assert_eq!(server.stats().panics, 0);
    server.begin_shutdown();
    server.join();
}

/// Heartbeats during a compute: `ping` and `stats` are answered while the
/// worker sweeps, ahead of the compute's own reply.
#[test]
fn ping_and_stats_during_a_compute_are_answered_before_the_reply() {
    let (big_net, big_ref) = big();
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .send_only(&Request::Compute(naive_compute(big_net.clone())))
        .unwrap();
    wait_admitted(&server);
    client.send_only(&Request::Ping).unwrap();
    assert_eq!(client.recv().unwrap(), Response::Pong);
    client.send_only(&Request::Stats).unwrap();
    match client.recv().unwrap() {
        Response::Stats(s) => assert_eq!(s.active_requests, 1, "{s:?}"),
        other => panic!("expected Stats, got {other:?}"),
    }
    assert_exact(client.recv().unwrap(), *big_ref);
    assert_eq!(server.stats().panics, 0);
    server.begin_shutdown();
    server.join();
}

/// One request at a time per connection: a second compute sent during a
/// compute is refused with a protocol error, and the first still completes
/// with the exact answer.
#[test]
fn a_second_compute_during_a_compute_is_refused_and_the_first_completes() {
    let (big_net, big_ref) = big();
    let (small_net, _) = instance(3, 3, 5);
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .send_only(&Request::Compute(naive_compute(big_net.clone())))
        .unwrap();
    wait_admitted(&server);
    client
        .send_only(&Request::Compute(naive_compute(small_net)))
        .unwrap();
    match client.recv().unwrap() {
        Response::Error(e) => assert_eq!(e.code, code::PROTOCOL, "{e}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_exact(client.recv().unwrap(), *big_ref);
    let stats = server.stats();
    assert_eq!((stats.served, stats.shed, stats.panics), (1, 0, 0));
    server.begin_shutdown();
    server.join();
}

/// Computes sent back to back on one connection, each as soon as the
/// previous reply arrives, are never refused, and the counters have settled
/// by the time the last reply is read.
#[test]
fn back_to_back_computes_on_one_connection_are_never_refused() {
    let instances: Vec<(String, f64)> = (100..150).map(|seed| instance(3, 3, seed)).collect();
    let server = start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (net, reference) in &instances {
        match client.compute(naive_compute(net.clone())).unwrap() {
            Response::Complete {
                reliability,
                cached,
                ..
            } => {
                assert_eq!(reliability.to_bits(), reference.to_bits());
                assert!(!cached, "the instances are distinct");
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }
    match client.stats().unwrap() {
        Response::Stats(s) => {
            assert_eq!(
                (s.served, s.shed, s.active_requests, s.panics),
                (50, 0, 0, 0),
                "{s:?}"
            );
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    server.begin_shutdown();
    server.join();
}
