//! Fault-injection harness: misbehaving clients against a live server.
//!
//! Every scenario asserts the same three invariants from the issue: the
//! server never panics (`stats.panics == 0`), never leaks a session or a
//! worker slot, and keeps serving correct answers to well-behaved clients
//! after each abuse.

use std::time::{Duration, Instant};

use flowrel_core::{fnet, FlowDemand, ReliabilityCalculator, ReliabilityError, Strategy};
use flowrel_server::proto::code;
use flowrel_server::server::{start, ServerConfig, ServerHandle};
use flowrel_server::{Client, ComputeRequest, Response, StrategySpec};
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

/// A long sweep (24 edges, ~17M configs) as `.fnet` text, for tests that
/// need a compute in flight and discard its answer.
fn big_net() -> String {
    let big = grid(4, 4, 5);
    fnet::serialize(
        &big.net,
        Some(FlowDemand::new(big.source, big.sink, big.demand)),
    )
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

fn server() -> ServerHandle {
    start(ServerConfig::default()).unwrap()
}

/// The server must still answer a fresh, well-behaved client exactly.
fn assert_still_serving(handle: &ServerHandle) {
    let (net, reference) = instance(3, 3, 5);
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.compute(naive_compute(net)).unwrap() {
        Response::Complete { reliability, .. } => assert_eq!(reliability, reference),
        other => panic!("expected Complete, got {other:?}"),
    }
    assert_eq!(handle.stats().panics, 0, "a fault leaked into a panic");
}

fn wait_for<F: Fn() -> bool>(what: &str, cond: F) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(20), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn garbage_payload_is_rejected_and_the_connection_survives() {
    let handle = server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // A well-formed length header framing bytes that are not JSON.
    let junk = b"\x89PNG not json at all";
    let mut frame = (junk.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(junk);
    client.send_raw(&frame).unwrap();
    match client.recv().unwrap() {
        Response::Error(e) => assert_eq!(e.code, code::PROTOCOL, "{e}"),
        other => panic!("expected a structured error, got {other:?}"),
    }

    // The stream is still frame-aligned: the same connection keeps working.
    client.ping().unwrap();
    let (net, reference) = instance(3, 3, 5);
    match client.compute(naive_compute(net)).unwrap() {
        Response::Complete { reliability, .. } => assert_eq!(reliability, reference),
        other => panic!("expected Complete, got {other:?}"),
    }
    assert!(handle.stats().protocol_errors >= 1);
    assert_still_serving(&handle);
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn oversized_length_header_is_fatal_for_that_connection_only() {
    let handle = server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // A length header far beyond the frame cap: the server must reply with
    // a structured error and hang up — it must NOT try to buffer 4 GiB.
    client.send_raw(&u32::MAX.to_be_bytes()).unwrap();
    match client.recv().unwrap() {
        Response::Error(e) => assert_eq!(e.code, code::PROTOCOL, "{e}"),
        other => panic!("expected a structured error, got {other:?}"),
    }
    // The stream is unrecoverable; the server closes it.
    assert!(client.ping().is_err(), "connection should be closed");

    // Other clients are unaffected.
    assert_still_serving(&handle);
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn client_disconnect_mid_compute_cancels_the_sweep() {
    let handle = start(ServerConfig {
        max_concurrent: 1,
        ..ServerConfig::default()
    })
    .unwrap();

    // Fire a long sweep, then vanish without reading the reply.
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .send_only(&flowrel_server::Request::Compute(naive_compute(big_net())))
        .unwrap();
    wait_for("big request admitted", || {
        handle.stats().active_requests == 1
    });
    client.slam();

    // The probe notices the dead socket, trips the cancel token, and the
    // worker slot drains — the single-slot pool is usable again.
    wait_for("slot reclaimed after disconnect", || {
        handle.stats().active_requests == 0
    });
    wait_for("session reaped after disconnect", || {
        handle.stats().active_sessions == 0
    });
    assert_still_serving(&handle);
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn deadline_storm_parks_distinct_tokens_that_all_resume_exactly() {
    let handle = server();
    let (net, reference) = instance(3, 3, 7);

    // Six concurrent clients, all asking for the same instance with a
    // 32-configuration budget: every one must get its own token.
    let mut threads = Vec::new();
    for _ in 0..6 {
        let addr = handle.addr().clone();
        let net = net.clone();
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.compute(ComputeRequest {
                max_configs: Some(32),
                ..naive_compute(net)
            })
            .unwrap()
        }));
    }
    let mut tokens = Vec::new();
    for t in threads {
        match t.join().unwrap() {
            Response::Partial {
                r_low,
                r_high,
                token,
                ..
            } => {
                assert!(r_low <= reference && reference <= r_high);
                tokens.push(token);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    }
    let distinct: std::collections::HashSet<_> = tokens.iter().cloned().collect();
    assert_eq!(distinct.len(), tokens.len(), "token collision: {tokens:?}");
    assert_eq!(handle.stats().parked, 6);

    // Every token resumes to the same bit-identical exact answer.
    for token in &tokens {
        let mut c = Client::connect(handle.addr()).unwrap();
        match c.resume(token).unwrap() {
            Response::Complete { reliability, .. } => {
                assert_eq!(reliability.to_bits(), reference.to_bits());
            }
            other => panic!("expected Complete from resume, got {other:?}"),
        }
    }
    assert_eq!(handle.stats().parked, 0);
    assert_still_serving(&handle);
    // Six computes, six resumes and the final check, each counted once.
    let stats = handle.stats();
    assert_eq!(stats.served + stats.shed, 13, "{stats:?}");
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn concurrent_resume_race_has_exactly_one_winner() {
    let handle = server();
    let (net, reference) = instance(3, 3, 9);

    let mut client = Client::connect(handle.addr()).unwrap();
    let token = match client
        .compute(ComputeRequest {
            max_configs: Some(32),
            ..naive_compute(net)
        })
        .unwrap()
    {
        Response::Partial { token, .. } => token,
        other => panic!("expected Partial, got {other:?}"),
    };

    // Two clients race to resume the same token.
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let addr = handle.addr().clone();
            let token = token.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.resume(&token).unwrap()
            })
        })
        .collect();
    let outcomes: Vec<Response> = racers.into_iter().map(|t| t.join().unwrap()).collect();

    let winners = outcomes
        .iter()
        .filter(|r| match r {
            Response::Complete { reliability, .. } => {
                assert_eq!(reliability.to_bits(), reference.to_bits());
                true
            }
            _ => false,
        })
        .count();
    let losers = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Error(e) if e.code == code::UNKNOWN_TOKEN))
        .count();
    assert_eq!(
        (winners, losers),
        (1, 1),
        "claim must be exclusive: {outcomes:?}"
    );
    assert_still_serving(&handle);
    // The parking compute, two resumes and the final check.
    let stats = handle.stats();
    assert_eq!(stats.served + stats.shed, 4, "{stats:?}");
    handle.begin_shutdown();
    handle.join();
}

/// A request shed by admission control counts in `shed` only, so
/// `served + shed` stays the number of compute requests.
#[test]
fn a_shed_request_counts_in_shed_and_not_in_served() {
    let handle = start(ServerConfig {
        max_concurrent: 1,
        max_waiting: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut long = Client::connect(handle.addr()).unwrap();
    long.send_only(&flowrel_server::Request::Compute(naive_compute(big_net())))
        .unwrap();
    wait_for("big request admitted", || {
        handle.stats().active_requests == 1
    });
    let (net, _) = instance(3, 3, 5);
    let mut second = Client::connect(handle.addr()).unwrap();
    match second.compute(naive_compute(net)).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, code::OVERLOADED, "{e}");
            assert!(e.retry_after_ms.is_some());
        }
        other => panic!("expected an overloaded refusal, got {other:?}"),
    }
    assert!(matches!(long.recv().unwrap(), Response::Complete { .. }));
    let stats = handle.stats();
    assert_eq!((stats.served, stats.shed), (1, 1), "{stats:?}");
    assert_still_serving(&handle);
    handle.begin_shutdown();
    handle.join();
}

/// A checkpoint whose counts promise more entries than any text could hold
/// (a plan checkpoint of about 150 bytes claiming 10^12 budget shares, or
/// 10^12 leaf states) gets a checkpoint-mismatch reply instead of an
/// allocation that aborts the daemon; the connection and the server keep
/// serving.
#[test]
fn checkpoint_with_a_huge_count_is_an_error_reply_not_an_abort() {
    let handle = server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let (net, _) = instance(3, 3, 5);
    let shares = "flowrel-checkpoint v1\nfingerprint 0\nkind plan\nroot-cut 0\nroot-maxk 3\n\
                  max-depth 0\ndeep 1\nshape 0\nshares 1000000000000\n";
    let leaves = shares.replace("shares 1000000000000", "shares 0\nleaves 1000000000000");
    let mismatch = ReliabilityError::CheckpointMismatch {
        reason: String::new(),
    }
    .code();
    for text in [shares.to_string(), leaves] {
        let request = ComputeRequest {
            checkpoint: Some(text),
            ..naive_compute(net.clone())
        };
        match client.compute(request).unwrap() {
            Response::Error(e) => assert_eq!(e.code, mismatch, "{e}"),
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }
    client.ping().unwrap();
    assert_still_serving(&handle);
    handle.begin_shutdown();
    handle.join();
}

/// `text` (a naive checkpoint) with the exported certificate `F 0`, whose
/// empty flow support claims every configuration feasible. With
/// `keep_cuts` it joins the recorded cut certificates, which contradict it;
/// otherwise it replaces them, nothing contradicts it, and with its sums
/// untouched resume accepts it and reaches a plausible wrong answer.
fn forge_feasible_cert(text: &str, keep_cuts: bool) -> String {
    let mut out = String::new();
    let mut skip = 0;
    for line in text.lines() {
        if skip > 0 {
            skip -= 1;
            continue;
        }
        match line.strip_prefix("certs ") {
            Some(n) => {
                let n: usize = n.parse().unwrap();
                if keep_cuts {
                    out.push_str(&format!("certs {}\nF 0\n", n + 1));
                } else {
                    out.push_str("certs 1\nF 0\n");
                    skip = n;
                }
            }
            None => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    assert_ne!(out, text, "the checkpoint carries a certs line");
    out
}

/// An answer resumed from a client's checkpoint goes back to that client
/// but never into the shared result cache: neither inline, nor after the
/// run parks and a later `resume` finishes it. The next plain request is
/// computed afresh and gets the exact answer. A forged certificate that
/// contradicts the recorded ones is refused outright; a lone one is not.
#[test]
fn a_client_checkpoint_never_feeds_the_result_cache() {
    let (net, reference) = instance(3, 3, 1);
    for park_first in [false, true] {
        let handle = server();
        let mut client = Client::connect(handle.addr()).unwrap();
        let text = match client
            .compute(ComputeRequest {
                max_configs: Some(200),
                ..naive_compute(net.clone())
            })
            .unwrap()
        {
            Response::Partial { checkpoint, .. } => checkpoint,
            other => panic!("expected Partial, got {other:?}"),
        };
        let contradicted = ComputeRequest {
            checkpoint: Some(forge_feasible_cert(&text, true)),
            ..naive_compute(net.clone())
        };
        let mismatch = ReliabilityError::CheckpointMismatch {
            reason: String::new(),
        }
        .code();
        match client.compute(contradicted).unwrap() {
            Response::Error(e) => assert_eq!(e.code, mismatch, "{e}"),
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
        let forged = ComputeRequest {
            checkpoint: Some(forge_feasible_cert(&text, false)),
            max_configs: park_first.then_some(64),
            ..naive_compute(net.clone())
        };
        let mut reply = client.compute(forged).unwrap();
        if let Response::Partial { token, .. } = reply {
            assert!(park_first, "an unlimited resume must finish");
            reply = client.resume(&token).unwrap();
        }
        match reply {
            Response::Complete {
                reliability,
                cached,
                ..
            } => assert!(!cached && reliability != reference, "{reliability}"),
            other => panic!("expected the forged run to finish, got {other:?}"),
        }
        match client.compute(naive_compute(net.clone())).unwrap() {
            Response::Complete {
                reliability,
                cached,
                ..
            } => {
                assert!(!cached, "the forged answer was cached (park: {park_first})");
                assert_eq!(reliability.to_bits(), reference.to_bits());
            }
            other => panic!("expected Complete, got {other:?}"),
        }
        assert_still_serving(&handle);
        handle.begin_shutdown();
        handle.join();
    }
}
