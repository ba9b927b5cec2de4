//! End-to-end CLI checks through the library-level entry points the binary
//! uses: generate → serialize → parse → compute must agree with a direct
//! computation, for every generator the CLI exposes.

use flowrel_core::fnet as format;
use flowrel_core::{reliability_factoring, CalcOptions, FlowDemand, ReliabilityCalculator};

#[test]
fn generated_barbell_roundtrips_and_computes() {
    let (inst, _) = workloads::generators::barbell(workloads::generators::BarbellParams {
        cluster_nodes: 4,
        cluster_extra_edges: 2,
        cut_links: 2,
        cut_capacity: 2,
        demand: 2,
        seed: 7,
    });
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let text = format::serialize(&inst.net, Some(demand));
    let parsed = format::parse(&text).expect("roundtrip parse");
    let direct = ReliabilityCalculator::new()
        .run_complete(&inst.net, demand)
        .unwrap()
        .reliability;
    let via_file = ReliabilityCalculator::new()
        .run_complete(&parsed.net, parsed.demand.expect("demand survives"))
        .unwrap()
        .reliability;
    assert!((direct - via_file).abs() < 1e-12, "{direct} vs {via_file}");
}

#[test]
fn generated_degraded_barbell_roundtrips_and_computes() {
    // multi-state cut links: the serialized text carries 'spectrum' lines,
    // and the parsed instance computes the same (naive) answer
    let (inst, cut) =
        workloads::generators::degraded_barbell(workloads::generators::BarbellParams {
            cluster_nodes: 3,
            cluster_extra_edges: 1,
            cut_links: 2,
            cut_capacity: 2,
            demand: 2,
            seed: 7,
        });
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let text = format::serialize(&inst.net, Some(demand));
    assert!(text.contains("spectrum"), "{text}");
    let parsed = format::parse(&text).expect("roundtrip parse");
    for &e in &cut {
        assert_eq!(parsed.net.spectrum(e), inst.net.spectrum(e));
    }
    let naive = ReliabilityCalculator::new().with_strategy(flowrel_core::Strategy::Naive);
    let direct = naive.run_complete(&inst.net, demand).unwrap().reliability;
    let via_file = naive
        .run_complete(&parsed.net, parsed.demand.expect("demand survives"))
        .unwrap()
        .reliability;
    assert!((direct - via_file).abs() < 1e-12, "{direct} vs {via_file}");
}

#[test]
fn generated_grid_roundtrips() {
    let inst = workloads::generators::grid(3, 3, 5);
    let demand = FlowDemand::new(inst.source, inst.sink, 1);
    let text = format::serialize(&inst.net, Some(demand));
    let parsed = format::parse(&text).expect("roundtrip parse");
    assert_eq!(parsed.net.edge_count(), inst.net.edge_count());
    let a = reliability_factoring(&inst.net, demand, &CalcOptions::default()).unwrap();
    let b = reliability_factoring(&parsed.net, demand, &CalcOptions::default()).unwrap();
    assert!((a - b).abs() < 1e-12);
}

#[test]
fn generated_mesh_roundtrips() {
    let peers: Vec<flowrel_overlay::Peer> = (0..6)
        .map(|i| flowrel_overlay::Peer::new(3, 300.0 + 50.0 * i as f64))
        .collect();
    let sc = flowrel_overlay::random_mesh(&peers, 2, 1, &flowrel_overlay::ChurnModel::new(90.0), 3);
    let sub = *sc.peers.last().unwrap();
    let demand = FlowDemand::new(sc.server, sub, 1);
    let text = format::serialize(&sc.net, Some(demand));
    let parsed = format::parse(&text).expect("roundtrip parse");
    for (a, b) in sc.net.edges().iter().zip(parsed.net.edges()) {
        assert_eq!(a, b, "probabilities must survive text round-trip exactly");
    }
}

/// Runs the `flowrel` binary and returns its exit code and stderr.
fn flowrel(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flowrel"))
        .args(args)
        .output()
        .expect("the flowrel binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_and_stray_arguments_are_usage_errors() {
    let inst = workloads::generators::grid(2, 2, 1);
    let demand = FlowDemand::new(inst.source, inst.sink, 1);
    let dir = std::env::temp_dir().join(format!("flowrel-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.fnet");
    std::fs::write(&path, format::serialize(&inst.net, Some(demand))).unwrap();
    let file = path.to_str().unwrap();

    // a misspelt flag used to run silently with its default
    let (code, err) = flowrel(&["compute", file, "--no-cert"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--no-cert"), "{err}");
    for bad in [
        &["compute", file, "stray"][..],
        &["compute", file, "--seed"],
        &["analyze", file, "--max-depth", "1"],
        &["dot", file, "--explain"],
        &["importance", file, "extra"],
        &["generate", "grid", "3", "3", "1", "9"],
        &["mc", file],
    ] {
        let (code, err) = flowrel(bad);
        assert_eq!(code, Some(2), "{bad:?}: {err}");
    }
    // accepted flags, values included, still run
    let (code, err) = flowrel(&["compute", file, "--no-certs", "--max-depth", "0"]);
    assert_eq!(code, Some(0), "{err}");
    let (code, err) = flowrel(&[
        "compute",
        file,
        "--strategy",
        "mc",
        "--mc-estimator",
        "crude",
        "--samples",
        "2000",
        "--seed",
        "3",
    ]);
    assert_eq!(code, Some(0), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compute_accepts_exactly_the_four_strategies() {
    let quickstart = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/quickstart.fnet"
    );
    for strategy in ["auto", "naive", "factoring", "mc"] {
        let (code, err) = flowrel(&["compute", quickstart, "--strategy", strategy]);
        assert_eq!(code, Some(0), "{strategy}: {err}");
    }
    for removed in ["bridge", "sp"] {
        let (code, err) = flowrel(&["compute", quickstart, "--strategy", removed]);
        assert_eq!(code, Some(2), "{removed}: {err}");
        assert!(err.contains("auto|naive|factoring|mc"), "{removed}: {err}");
    }
}

#[test]
fn side_checkpoints_from_before_the_nearest_first_order_exit_23() {
    // `flowrel generate barbell 7 4 2 2 1`, and the checkpoint a budgeted run
    // of it wrote before side sweeps walked their links nearest first
    let (inst, _) = workloads::generators::barbell(workloads::generators::BarbellParams {
        cluster_nodes: 7,
        cluster_extra_edges: 4,
        cut_links: 2,
        cut_capacity: 2,
        demand: 2,
        seed: 1,
    });
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let dir = std::env::temp_dir().join(format!("flowrel-cli-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("barbell.fnet");
    std::fs::write(&path, format::serialize(&inst.net, Some(demand))).unwrap();
    let legacy = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden/legacy-order-barbell7-300.ckpt"
    );
    let (code, err) = flowrel(&["compute", path.to_str().unwrap(), "--resume", legacy]);
    assert_eq!(code, Some(23), "{err}");
    assert!(err.contains("order bfs"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn factoring_checkpoints_from_before_the_sweep_driver_exit_23() {
    // `flowrel generate grid 3 3`, and the checkpoint a budgeted factoring
    // run of it wrote before factoring ran on the sweep driver
    let inst = workloads::generators::grid(3, 3, 1);
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let dir = std::env::temp_dir().join(format!("flowrel-cli-fact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.fnet");
    std::fs::write(&path, format::serialize(&inst.net, Some(demand))).unwrap();
    let legacy = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden/legacy-factoring-grid33-20.ckpt"
    );
    let (code, err) = flowrel(&["compute", path.to_str().unwrap(), "--resume", legacy]);
    assert_eq!(code, Some(23), "{err}");
    assert!(err.contains("sweep driver"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn importance_of_a_multi_state_network_exits_25() {
    // `flowrel generate degraded-barbell 4 2 3 2 7`: importance pins binary
    // weight pairs, which a capacity spectrum has no place for
    let (inst, _) = workloads::generators::degraded_barbell(workloads::generators::BarbellParams {
        cluster_nodes: 4,
        cluster_extra_edges: 2,
        cut_links: 3,
        cut_capacity: 2,
        demand: 2,
        seed: 7,
    });
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let dir = std::env::temp_dir().join(format!("flowrel-cli-degraded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("degraded.fnet");
    std::fs::write(&path, format::serialize(&inst.net, Some(demand))).unwrap();
    let (code, err) = flowrel(&["importance", path.to_str().unwrap()]);
    assert_eq!(code, Some(25), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn importance_beyond_the_link_mask_is_an_error_not_a_panic() {
    // the 71-link grid `flowrel generate grid 6 7 3` writes
    let inst = workloads::generators::grid(6, 7, 3);
    assert_eq!(inst.net.edge_count(), 71);
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let dir = std::env::temp_dir().join(format!("flowrel-cli-grid67-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.fnet");
    std::fs::write(&path, format::serialize(&inst.net, Some(demand))).unwrap();
    let (code, err) = flowrel(&["importance", path.to_str().unwrap()]);
    assert_eq!(code, Some(12), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs the `flowrel` binary with its stdout a pipe whose reading end is
/// closed before the binary writes; returns its exit code and stderr.
fn flowrel_into_closed_pipe(args: &[&str]) -> (Option<i32>, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_flowrel"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("the flowrel binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("the flowrel binary exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_keeps_the_run_exit_status() {
    let inst = workloads::generators::grid(3, 3, 1);
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let dir = std::env::temp_dir().join(format!("flowrel-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.fnet");
    std::fs::write(&path, format::serialize(&inst.net, Some(demand))).unwrap();
    let file = path.to_str().unwrap();
    let ckpt = dir.join("grid.ckpt");

    let (code, err) = flowrel_into_closed_pipe(&["compute", file, "--strategy", "naive"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    // a partial run still writes its checkpoint and exits "incomplete"
    let budgeted = [
        "compute",
        file,
        "--strategy",
        "naive",
        "--max-configs",
        "200",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ];
    let (code, err) = flowrel_into_closed_pipe(&budgeted);
    assert_eq!(code, Some(20), "{err}");
    assert!(ckpt.exists());
    // 7 080 link lines overflow any pipe buffer, so a write must fail
    let (code, err) = flowrel_into_closed_pipe(&["generate", "grid", "60", "60", "1"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stdout that fails for another reason than a closed pipe (`/dev/full`
/// fails every write, as a full disk does) fails the run with exit 3
/// instead of leaving a truncated report behind a success.
#[cfg(target_os = "linux")]
#[test]
fn a_failing_stdout_is_an_io_error() {
    let inst = workloads::generators::grid(3, 3, 1);
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let dir = std::env::temp_dir().join(format!("flowrel-cli-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.fnet");
    std::fs::write(&path, format::serialize(&inst.net, Some(demand))).unwrap();
    let file = path.to_str().unwrap();

    for args in [
        &["generate", "grid", "60", "60", "1"][..],
        &["compute", file, "--strategy", "naive"][..],
    ] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_flowrel"))
            .args(args)
            .stdout(full)
            .output()
            .expect("the flowrel binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {err}");
        assert!(err.contains("writing stdout"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
