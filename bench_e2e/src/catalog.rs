//! What each workload runs: fixed network shapes, with link failure
//! probabilities, estimator seeds and arrival schedules drawn from `--seed`.
//!
//! The shapes (topology and capacities) are fixed per workload. The work a
//! solve does depends on the shape, not on the failure probabilities, so it
//! is the same for every seed while the answers differ. That keeps the
//! spread of a timing across seeds down to machine noise.

use flowrel_core::{fnet, FlowDemand};
use flowrel_overlay::{ChurnModel, Peer, StreamingScenario};
use netgraph::{Network, NetworkBuilder};

/// SplitMix64: a small generator whose stream depends on nothing but its
/// seed, so the benchmark's inputs are reproducible across toolchains.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seed for sub-stream `stream` of `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Barbells and ring barbells: the paper's α-bottleneck case.
    AlphaSweep,
    /// Recursively decomposable families: the planner's case.
    NestedPlan,
    /// Monte-Carlo estimation on pull meshes no exact method reaches.
    McMesh,
    /// Per-subscriber queries served by `flowrel-server` over loopback.
    OverlayServe,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::AlphaSweep,
        Workload::NestedPlan,
        Workload::McMesh,
        Workload::OverlayServe,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AlphaSweep => "alpha-sweep",
            Workload::NestedPlan => "nested-plan",
            Workload::McMesh => "mc-mesh",
            Workload::OverlayServe => "overlay-serve",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One catalogue entry: a fixed network shape and its demand.
pub struct Entry {
    /// Stable name, used as the reference key.
    pub name: String,
    /// Entries of one group share their reweighting (the subscriber queries
    /// of one overlay keep one set of link probabilities).
    pub group: u64,
    /// The network.
    pub net: Network,
    /// The demand.
    pub demand: FlowDemand,
}

impl Entry {
    fn new(name: String, group: u64, net: Network, demand: FlowDemand) -> Self {
        Entry {
            name,
            group,
            net,
            demand,
        }
    }

    /// The entry as `.fnet` text, probabilities as generated.
    pub fn text(&self) -> String {
        fnet::serialize(&self.net, Some(self.demand))
    }

    /// The entry as `.fnet` text with every link's failure probability
    /// scaled by a factor in `[0.75, 1.25)` drawn from `seed` and the entry's
    /// group, rounded to a 1/1024 grid.
    pub fn reweighted(&self, seed: u64) -> String {
        let mut rng = Rng::new(derive(seed, self.group));
        let mut b = NetworkBuilder::new(self.net.kind());
        let nodes = b.add_nodes(self.net.node_count());
        for e in self.net.edges() {
            let scaled = e.fail_prob * (0.75 + 0.5 * rng.unit());
            let p = ((scaled * 1024.0).round() / 1024.0).clamp(1.0 / 1024.0, 0.95);
            b.add_edge(nodes[e.src.index()], nodes[e.dst.index()], e.capacity, p)
                .expect("a rebuilt link stays valid");
        }
        fnet::serialize(&b.build(), Some(self.demand))
    }
}

/// Fixed topology seeds: the shapes never depend on `--seed`.
const TOPOLOGY_SEED: u64 = 20_170_529;

fn demand_of(inst: &workloads::generators::Instance) -> FlowDemand {
    FlowDemand::new(inst.source, inst.sink, inst.demand)
}

/// Peers with upload capacities 1–4 and mean sessions of 2–30 minutes.
fn peers(n: usize, seed: u64) -> Vec<Peer> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| Peer::new(1 + rng.below(4), 120.0 + 1680.0 * rng.unit()))
        .collect()
}

/// A 90 s streaming window with 2% residual transport loss.
fn churn() -> ChurnModel {
    ChurnModel::new(90.0).with_base_loss(0.02)
}

fn subscriber_entries(
    out: &mut Vec<Entry>,
    prefix: &str,
    group: u64,
    sc: &StreamingScenario,
    take_last: usize,
) {
    let first = sc.peers.len().saturating_sub(take_last);
    for (i, &sub) in sc.peers.iter().enumerate().skip(first) {
        let demand = FlowDemand::new(sc.server, sub, sc.stream_rate);
        out.push(Entry::new(
            format!("{prefix}.s{i}"),
            group,
            sc.net.clone(),
            demand,
        ));
    }
}

/// The overlay shapes `overlay-serve` queries, ten of the first sixteen.
/// Shapes 2, 4 and 11 are left out: each has a subscriber with no bottleneck
/// worth splitting and more than 30 fallible links, which the naive fallback
/// refuses. Of the rest, these ten put well over half of the requests past
/// the server's first 10 ms poll, so the median reply sits inside one
/// polling step instead of on the edge between two, where it would jump
/// from seed to seed.
const OVERLAYS: [u64; 10] = [0, 1, 3, 6, 7, 8, 9, 12, 13, 14];

/// The catalogue of `w`. `smoke` keeps about a twentieth of the work.
pub fn entries(w: Workload, smoke: bool) -> Vec<Entry> {
    let topologies = if smoke { 1 } else { 3 };
    let mut out = Vec::new();
    match w {
        Workload::AlphaSweep => {
            for t in 0..topologies {
                let base = TOPOLOGY_SEED + 1000 * t;
                for e in [38usize, 40, 42, 44] {
                    let (inst, _) = flowrel_bench::barbell_with_edges(e, 3, 2, base + e as u64);
                    let group = out.len() as u64;
                    out.push(Entry::new(
                        format!("barbell-e{e}.t{t}"),
                        group,
                        inst.net.clone(),
                        demand_of(&inst),
                    ));
                }
                for (c, k) in [(12usize, 4usize), (13, 4), (13, 5), (14, 4)] {
                    let (inst, _) = flowrel_bench::ring_barbell(c, k, base + (10 * c + k) as u64);
                    let group = out.len() as u64;
                    out.push(Entry::new(
                        format!("ring-{c}x{k}.t{t}"),
                        group,
                        inst.net.clone(),
                        demand_of(&inst),
                    ));
                }
            }
        }
        Workload::NestedPlan => {
            use workloads::generators::{
                barbell_mesh, chained_barbell, kary_nested_cut, nested_barbell,
            };
            for t in 0..topologies {
                let base = TOPOLOGY_SEED + 1000 * t;
                let mut shapes = Vec::new();
                for c in [5usize, 6, 7] {
                    shapes.push((
                        format!("kary-{c}x2"),
                        kary_nested_cut(c, 2, base + c as u64),
                    ));
                }
                for c in [4usize, 5] {
                    shapes.push((
                        format!("nested-3x{c}"),
                        nested_barbell(3, c, 2, base + 10 + c as u64),
                    ));
                }
                for seg in [6usize, 8] {
                    shapes.push((
                        format!("chained-{seg}"),
                        chained_barbell(seg, 4, 2, base + 20 + seg as u64),
                    ));
                    shapes.push((
                        format!("mesh-{seg}"),
                        barbell_mesh(seg, base + 30 + seg as u64),
                    ));
                }
                for (name, inst) in shapes {
                    let group = out.len() as u64;
                    out.push(Entry::new(
                        format!("{name}.t{t}"),
                        group,
                        inst.net.clone(),
                        demand_of(&inst),
                    ));
                }
            }
        }
        Workload::McMesh => {
            let sizes: &[usize] = if smoke { &[24] } else { &[24, 26, 28, 32] };
            for &n in sizes {
                let base = TOPOLOGY_SEED + n as u64;
                let sc = flowrel_overlay::random_mesh(&peers(n, base), 3, 2, &churn(), base);
                subscriber_entries(&mut out, &format!("mesh-{n}"), n as u64, &sc, 8);
            }
        }
        Workload::OverlayServe => {
            let overlays = if smoke { 1 } else { OVERLAYS.len() };
            for &o in &OVERLAYS[..overlays] {
                let base = TOPOLOGY_SEED + 7 * o;
                let sc =
                    flowrel_overlay::hybrid_tree_mesh(&peers(24, base), 0.25, 1, 2, &churn(), base);
                subscriber_entries(&mut out, &format!("hybrid-{o}"), o, &sc, 24);
            }
        }
    }
    if smoke && w != Workload::OverlayServe {
        out.truncate(8);
    }
    out
}

/// The small pull meshes the Monte-Carlo coverage check solves exactly:
/// `random_mesh(10 peers, 3 uploaders)`, last 4 subscribers each.
pub fn coverage_entries(meshes: u64) -> Vec<Entry> {
    let mut out = Vec::new();
    for m in 0..meshes {
        let base = TOPOLOGY_SEED + 500 + m;
        let sc = flowrel_overlay::random_mesh(&peers(10, base), 3, 2, &churn(), base);
        subscriber_entries(&mut out, &format!("small-mesh-{m}"), m, &sc, 4);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reweighting_is_seeded_and_keeps_the_shape() {
        let e = &entries(Workload::AlphaSweep, true)[0];
        assert_eq!(e.reweighted(3), e.reweighted(3));
        assert_ne!(e.reweighted(3), e.reweighted(4));
        let a = fnet::parse(&e.reweighted(3)).expect("rendered text parses");
        assert_eq!(a.net.edge_count(), e.net.edge_count());
        for (x, y) in a.net.edges().iter().zip(e.net.edges()) {
            assert_eq!((x.src, x.dst, x.capacity), (y.src, y.dst, y.capacity));
            assert!(x.fail_prob > 0.0 && x.fail_prob <= 0.95);
        }
    }

    #[test]
    fn catalogues_do_not_depend_on_the_run_seed() {
        for w in Workload::ALL {
            let a: Vec<String> = entries(w, true).iter().map(Entry::text).collect();
            let b: Vec<String> = entries(w, true).iter().map(Entry::text).collect();
            assert_eq!(a, b, "{}", w.name());
            assert!(!a.is_empty());
        }
    }
}
