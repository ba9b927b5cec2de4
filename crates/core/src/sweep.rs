//! The shared configuration-sweep engine.
//!
//! Every exponential enumeration in the crate — the naive `2^|E|` baseline,
//! the weighted/exact variant, the per-side realization spectrum, and the
//! paper-faithful realization table — walks a `2^m` configuration space and
//! asks a max-flow oracle one monotone feasibility question per
//! configuration. This module centralizes that walk and layers three exact
//! optimizations on top of it:
//!
//! 1. **Certificate caching** ([`maxflow::certcache`]): each solver verdict is
//!    generalized into a monotonicity certificate (flow support / saturated
//!    cut), and subsequent configurations are first tested against a bounded
//!    cache of certificates — a few word operations instead of a max-flow.
//! 2. **Gray-code enumeration with split-product weights**: configurations
//!    are visited in an order that changes one link per step (O(1) mask
//!    maintenance), and each configuration's probability is the product of a
//!    precomputed low-bits table entry and a per-block high-bits product —
//!    two multiplications per configuration, division-free, so the same code
//!    is exact for [`exactmath::BigRational`] weights.
//! 3. **Chunked parallelism**: the index space is split into contiguous
//!    chunks; each rayon worker owns a *clone* of the oracle, its own
//!    certificate cache, and a private accumulator, merged at the end.
//!
//! All three are behavior-preserving: certificates answer exactly what the
//! solver would, the weight factorization is algebraically identical, and
//! the parallel merge only regroups additions (bit-identical for exact
//! weights, within rounding for `f64`).
//!
//! ## Anytime operation
//!
//! Every sweep also exists in a `*_budgeted` form that polls a
//! [`BudgetSentinel`] between small batches of configurations. When the
//! budget runs out the sweep stops at a clean cursor and returns a partial
//! result ([`PartialSum`] / [`PartialSpectrum`] / [`PartialTable`]) whose
//! `remaining` ranges describe exactly which configuration indices were
//! never examined. Passing that partial result back in as `resume` continues
//! the walk; for the *serial* engine the feasible/explored accumulations are
//! replayed in the identical order, so an interrupted-and-resumed run
//! reproduces the uninterrupted result **bit for bit**. The non-budgeted
//! entry points are thin wrappers over the budgeted ones with an unlimited
//! sentinel, so there is exactly one enumeration code path.

use exactmath::NeumaierSum;
use maxflow::{CertCache, RepairStats, SolveCert, CERTIFICATE_CACHE_SIZE};
use netgraph::{EdgeMask, StateExpansion};
use rayon::prelude::*;

use crate::budget::BudgetSentinel;
use crate::options::CalcOptions;
use crate::oracle::{DemandOracle, SideOracle};
use crate::weight::Weight;

/// Low-bits width of the split-product weight table (table size `2^this`)
/// and granularity of the per-block high products.
const BLOCK_BITS: usize = 12;

/// Minimum enumeration exponent before chunked parallelism pays for itself.
const PARALLEL_MIN_BITS: usize = 10;

/// Configurations examined between budget polls: large enough that the poll
/// (an atomic add) is noise next to a max-flow call, small enough that a
/// deadline or cancellation is honored promptly. The side sweeps also switch
/// assignments once per batch, so a larger batch means fewer warm-flow
/// invalidations for the incremental oracle.
const BATCH: u64 = 256;

/// Counters describing one configuration sweep; merged across workers and
/// across the two sides of a bottleneck decomposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Configurations tested (for side sweeps: configuration × assignment
    /// pairs — the solver-call space).
    pub configs: u64,
    /// Max-flow solver invocations actually performed.
    pub solver_calls: u64,
    /// Configurations classified feasible by a cached certificate.
    pub feasible_hits: u64,
    /// Configurations classified infeasible by a cached certificate.
    pub infeasible_hits: u64,
    /// Link flips applied to a warm flow by the incremental oracle.
    pub flips: u64,
    /// Warm verdicts answered by repairing the carried flow in place.
    pub repairs: u64,
    /// Warm verdicts that fell back to a from-scratch re-solve (cold starts,
    /// range boundaries, wide flip jumps, repair failures).
    pub full_resolves: u64,
}

impl SweepStats {
    /// Solver calls avoided via certificates.
    pub fn solver_calls_avoided(&self) -> u64 {
        self.feasible_hits + self.infeasible_hits
    }

    /// Fraction of tested configurations answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.configs == 0 {
            0.0
        } else {
            self.solver_calls_avoided() as f64 / self.configs as f64
        }
    }

    /// Accumulates another worker's counters.
    pub fn merge(&mut self, other: &SweepStats) {
        self.configs += other.configs;
        self.solver_calls += other.solver_calls;
        self.feasible_hits += other.feasible_hits;
        self.infeasible_hits += other.infeasible_hits;
        self.flips += other.flips;
        self.repairs += other.repairs;
        self.full_resolves += other.full_resolves;
    }

    /// Folds in the incremental-repair counters taken from an oracle (see
    /// [`maxflow::incremental::RepairStats`]).
    pub fn absorb_repairs(&mut self, r: &RepairStats) {
        self.flips += r.flips;
        self.repairs += r.repairs;
        self.full_resolves += r.full_resolves;
    }
}

/// How the engine should run one sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Split the index space across rayon workers.
    pub parallel: bool,
    /// Consult/record monotonicity certificates before invoking the solver.
    pub certificates: bool,
    /// Certificates retained per cache (per kind, per worker, and — for side
    /// sweeps — per assignment).
    pub cache_size: usize,
    /// Carry a warm feasible flow across the configuration steps inside each
    /// worker's contiguous range, repairing it per flipped link instead of
    /// re-solving from scratch (see [`maxflow::incremental`]). Warm state is
    /// dropped at every range boundary — worker start, chunk switch, and
    /// resume-from-checkpoint — so verdicts (and therefore every sum, bound,
    /// and checkpoint) are identical with it on or off.
    pub incremental: bool,
    /// Run serially when the sweep totals fewer solver questions than this,
    /// even with [`parallel`](Self::parallel) set: below ~10k configurations
    /// the fork/join and per-worker oracle clones cost more than they save.
    pub parallel_threshold: u64,
}

impl SweepConfig {
    /// Serial, certificate-free, cold-solve sweep (the legacy behavior).
    pub fn serial() -> Self {
        SweepConfig {
            parallel: false,
            certificates: false,
            cache_size: 0,
            incremental: false,
            parallel_threshold: 0,
        }
    }

    /// Derives the sweep configuration from the calculation options.
    pub fn from_opts(opts: &CalcOptions) -> Self {
        SweepConfig {
            parallel: opts.parallel,
            certificates: opts.certificate_cache,
            cache_size: CERTIFICATE_CACHE_SIZE,
            incremental: opts.incremental,
            parallel_threshold: opts.parallel_threshold,
        }
    }

    fn cache(&self) -> Option<CertCache> {
        if self.certificates {
            Some(CertCache::new(self.cache_size))
        } else {
            None
        }
    }

    /// Whether a sweep of `m` enumerated bits totalling `work` solver
    /// questions should fan out across rayon workers.
    fn fan_out(&self, m: usize, work: u64) -> bool {
        self.parallel && m >= PARALLEL_MIN_BITS && work >= self.parallel_threshold
    }
}

/// A feasibility oracle the engine can drive: one monotone verdict per
/// configuration, with optional certificate extraction.
pub trait SweepOracle {
    /// Tests one configuration; extracts a certificate when `want_cert`.
    fn test_config(&mut self, mask: EdgeMask, want_cert: bool) -> (bool, SolveCert);

    /// Per-link capacities in the mask's bit order, used by cut certificates
    /// to bound the flow a configuration can carry across a witnessed cut.
    fn edge_capacities(&self) -> &[u64];

    /// Switches warm-start incremental flow repair on or off. The default is
    /// a no-op for oracles without warm state.
    fn set_incremental(&mut self, on: bool) {
        let _ = on;
    }

    /// Drops any warm flow so the next verdict re-solves from scratch. The
    /// engine calls this at every range boundary — worker start, chunk
    /// switch, and resume-from-checkpoint.
    fn invalidate_warm(&mut self) {}

    /// Takes the incremental-repair counters accumulated since the last call.
    fn take_repair_stats(&mut self) -> RepairStats {
        RepairStats::default()
    }
}

impl SweepOracle for DemandOracle {
    fn test_config(&mut self, mask: EdgeMask, want_cert: bool) -> (bool, SolveCert) {
        self.admits_with_cert(mask, want_cert)
    }

    fn edge_capacities(&self) -> &[u64] {
        DemandOracle::edge_capacities(self)
    }

    fn set_incremental(&mut self, on: bool) {
        DemandOracle::set_incremental(self, on);
    }

    fn invalidate_warm(&mut self) {
        DemandOracle::invalidate_warm(self);
    }

    fn take_repair_stats(&mut self) -> RepairStats {
        DemandOracle::take_repair_stats(self)
    }
}

impl SweepOracle for SideOracle {
    fn test_config(&mut self, mask: EdgeMask, want_cert: bool) -> (bool, SolveCert) {
        self.admits_with_cert(mask, want_cert)
    }

    fn edge_capacities(&self) -> &[u64] {
        SideOracle::edge_capacities(self)
    }

    fn set_incremental(&mut self, on: bool) {
        SideOracle::set_incremental(self, on);
    }

    fn invalidate_warm(&mut self) {
        SideOracle::invalidate_warm(self);
    }

    fn take_repair_stats(&mut self) -> RepairStats {
        SideOracle::take_repair_stats(self)
    }
}

/// Answers one configuration from the certificate cache when possible,
/// otherwise solves and records the new certificate.
#[inline]
fn classify_or_solve<O: SweepOracle>(
    oracle: &mut O,
    cache: &mut Option<CertCache>,
    mask: EdgeMask,
    stats: &mut SweepStats,
) -> bool {
    stats.configs += 1;
    match cache {
        Some(cache) => {
            if let Some(verdict) = cache.classify(mask.bits(), oracle.edge_capacities()) {
                if verdict {
                    stats.feasible_hits += 1;
                } else {
                    stats.infeasible_hits += 1;
                }
                return verdict;
            }
            stats.solver_calls += 1;
            let (ok, cert) = oracle.test_config(mask, true);
            cache.record(cert);
            ok
        }
        None => {
            stats.solver_calls += 1;
            oracle.test_config(mask, false).0
        }
    }
}

/// Solves the all-alive and all-dead configurations once to pre-seed worker
/// caches: their certificates (the best-case flow support and the worst-case
/// cut) are the two most general ones a sweep can hold, and parallel workers
/// would otherwise each rediscover them from a cold cache.
fn seed_certs<O: SweepOracle>(
    oracle: &mut O,
    masks: [EdgeMask; 2],
    stats: &mut SweepStats,
) -> Vec<SolveCert> {
    let mut seeds = Vec::with_capacity(2);
    for mask in masks {
        stats.solver_calls += 1;
        let (_, cert) = oracle.test_config(mask, true);
        if cert != SolveCert::None {
            seeds.push(cert);
        }
    }
    seeds
}

/// A fresh per-worker cache, pre-loaded with the seed certificates.
fn seeded_cache(cfg: &SweepConfig, seeds: &[SolveCert]) -> Option<CertCache> {
    let mut cache = cfg.cache();
    if let Some(c) = &mut cache {
        for &s in seeds {
            c.record(s);
        }
    }
    cache
}

/// Drops empty ranges, sorts, and merges adjacent/overlapping half-open
/// `[lo, hi)` ranges.
fn coalesce(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.retain(|&(lo, hi)| lo < hi);
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Splits a set of ranges into roughly `parts` contiguous pieces of near-equal
/// length, preserving order within each input range.
fn split_ranges(ranges: &[(u64, u64)], parts: usize) -> Vec<(u64, u64)> {
    let total: u64 = ranges.iter().map(|&(lo, hi)| hi - lo).sum();
    if total == 0 {
        return Vec::new();
    }
    let piece = total.div_ceil(parts.max(1) as u64).max(1);
    let mut out = Vec::new();
    for &(lo, hi) in ranges {
        let mut c = lo;
        while c < hi {
            let e = hi.min(c + piece);
            out.push((c, e));
            c = e;
        }
    }
    out
}

/// Total length of a set of half-open ranges.
fn ranges_len(ranges: &[(u64, u64)]) -> u64 {
    ranges.iter().map(|&(lo, hi)| hi - lo).sum()
}

/// Split-product weight table: `weight(config) = low[config & low_mask] ·
/// high(config >> low_bits)`, where `low` is precomputed once (two
/// multiplications per entry) and the high product changes only once per
/// `2^low_bits` block. Division-free, so exact for any [`Weight`].
struct WeightTable<W> {
    low: Vec<W>,
    low_bits: usize,
    low_mask: u64,
}

impl<W: Weight> WeightTable<W> {
    /// `weights[i]` is the `(alive, failed)` pair of enumeration bit `i`.
    fn new(weights: &[(W, W)]) -> Self {
        let b = BLOCK_BITS.min(weights.len());
        let mut low = vec![W::one()];
        for w in weights.iter().take(b) {
            let mut next = Vec::with_capacity(low.len() * 2);
            for t in &low {
                next.push(t.mul(&w.1)); // new top bit 0: failed
            }
            for t in &low {
                next.push(t.mul(&w.0)); // new top bit 1: alive
            }
            low = next;
        }
        let low_mask = if b == 0 { 0 } else { (1u64 << b) - 1 };
        WeightTable {
            low,
            low_bits: b,
            low_mask,
        }
    }

    /// Product over the bits at positions `low_bits..` for block `g_high`.
    fn high_product(&self, weights: &[(W, W)], g_high: u64) -> W {
        let mut p = W::one();
        for (i, w) in weights.iter().enumerate().skip(self.low_bits) {
            p = p.mul(if g_high >> (i - self.low_bits) & 1 == 1 {
                &w.0
            } else {
                &w.1
            });
        }
        p
    }

    /// Weight of configuration `g`, given its block's high product.
    fn weight(&self, g: u64, high: &W) -> W {
        self.low[(g & self.low_mask) as usize].mul(high)
    }
}

/// Partial-sum strategy of a sweep: compensated for `f64`, plain ring
/// addition for exact weights.
pub trait SweepAccumulator<W>: Send {
    /// A serializable snapshot of the running accumulation, for
    /// checkpointing mid-sweep.
    type State: Clone + Send;
    /// The zero accumulator.
    fn empty() -> Self;
    /// Adds one configuration's weight.
    fn add(&mut self, w: W);
    /// Folds in another worker's partial sum.
    fn merge(&mut self, other: Self);
    /// The accumulated total.
    fn finish(self) -> W;
    /// Snapshots the running state. Rebuilding with
    /// [`SweepAccumulator::from_state`] and continuing reproduces the
    /// uninterrupted accumulation (bit-identical for the serial engine).
    fn state(&self) -> Self::State;
    /// Rebuilds an accumulator from a saved snapshot.
    fn from_state(s: Self::State) -> Self;
}

/// Neumaier-compensated `f64` accumulation.
pub struct CompensatedAcc(NeumaierSum);

impl SweepAccumulator<f64> for CompensatedAcc {
    type State = (f64, f64);

    fn empty() -> Self {
        CompensatedAcc(NeumaierSum::new())
    }

    fn add(&mut self, w: f64) {
        self.0.add(w);
    }

    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
    }

    fn finish(self) -> f64 {
        self.0.total()
    }

    fn state(&self) -> (f64, f64) {
        self.0.parts()
    }

    fn from_state((sum, comp): (f64, f64)) -> Self {
        CompensatedAcc(NeumaierSum::from_parts(sum, comp))
    }
}

/// Plain `W` addition (exact for rational weights).
pub struct PlainAcc<W>(W);

impl<W: Weight> SweepAccumulator<W> for PlainAcc<W> {
    type State = W;

    fn empty() -> Self {
        PlainAcc(W::zero())
    }

    fn add(&mut self, w: W) {
        self.0 = self.0.add(&w);
    }

    fn merge(&mut self, other: Self) {
        self.0 = self.0.add(&other.0);
    }

    fn finish(self) -> W {
        self.0
    }

    fn state(&self) -> W {
        self.0.clone()
    }

    fn from_state(s: W) -> Self {
        PlainAcc(s)
    }
}

/// Geometry of a naive sweep: which network edges are enumerated (compact
/// bit `j` ↔ edge `fallible[j]`) and which are pinned alive.
pub struct SweepGeometry<'a> {
    /// Enumerated edge indices, in compact-bit order.
    pub fallible: &'a [usize],
    /// Bits (over the full edge numbering) pinned alive in every mask.
    pub pinned: u64,
    /// Total network edge count (full mask width).
    pub edge_count: usize,
}

/// The state of a (possibly interrupted) [`sweep_sum_budgeted`] run.
///
/// `remaining` empty means the sweep completed and `feasible` holds the full
/// sum. Otherwise `feasible` is a certified lower bound on the full sum,
/// `explored` is the total weight of every configuration examined so far
/// (feasible or not), and `remaining` lists the half-open index ranges that
/// were never examined — feeding the whole value back in as `resume`
/// continues exactly there.
pub struct PartialSum<A> {
    /// Accumulated weight of the feasible configurations examined so far.
    pub feasible: A,
    /// Accumulated weight of *all* configurations examined so far (only
    /// tracked when the sweep runs under a real budget).
    pub explored: A,
    /// Half-open `[lo, hi)` index ranges not yet examined, ascending.
    pub remaining: Vec<(u64, u64)>,
    /// Certificates exported from the sweep's cache, to warm-start a resumed
    /// run (advisory: an empty list only costs cold-cache solves).
    pub certs: Vec<SolveCert>,
}

impl<A> PartialSum<A> {
    /// Whether every configuration has been examined.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Number of configurations not yet examined.
    pub fn remaining_configs(&self) -> u64 {
        ranges_len(&self.remaining)
    }
}

/// Sums the weights of all feasible configurations of a `2^m` enumeration
/// over `geom.fallible`, where `weights[j]` is the `(alive, failed)` pair of
/// compact bit `j`.
pub fn sweep_sum<W, A, O>(
    oracle: &O,
    geom: &SweepGeometry<'_>,
    weights: &[(W, W)],
    cfg: &SweepConfig,
) -> (W, SweepStats)
where
    W: Weight,
    A: SweepAccumulator<W>,
    O: SweepOracle + Clone + Send + Sync,
{
    let sentinel = BudgetSentinel::unlimited();
    let (partial, stats) =
        sweep_sum_budgeted::<W, A, O>(oracle, geom, weights, cfg, &sentinel, None);
    debug_assert!(partial.is_complete(), "unlimited sweeps always finish");
    (partial.feasible.finish(), stats)
}

/// Budget-guarded form of [`sweep_sum`]: examines configurations until done
/// or until `sentinel` stops granting, and returns the (possibly partial)
/// state plus counters. Pass a previous run's [`PartialSum`] as `resume` to
/// continue it; a serial interrupted-and-resumed run reproduces the
/// uninterrupted sum bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn sweep_sum_budgeted<W, A, O>(
    oracle: &O,
    geom: &SweepGeometry<'_>,
    weights: &[(W, W)],
    cfg: &SweepConfig,
    sentinel: &BudgetSentinel,
    resume: Option<PartialSum<A>>,
) -> (PartialSum<A>, SweepStats)
where
    W: Weight,
    A: SweepAccumulator<W>,
    O: SweepOracle + Clone + Send + Sync,
{
    let m = geom.fallible.len();
    assert_eq!(weights.len(), m, "one weight pair per enumerated edge");
    let total = 1u64 << m;
    let wt = WeightTable::new(weights);
    let (mut feasible, mut explored, work, warm) = match resume {
        Some(p) => (p.feasible, p.explored, coalesce(p.remaining), p.certs),
        None => (A::empty(), A::empty(), vec![(0, total)], Vec::new()),
    };
    debug_assert!(work.iter().all(|&(_, hi)| hi <= total));
    if cfg.fan_out(m, ranges_len(&work)) {
        let mut seed_stats = SweepStats::default();
        let mut seeds = if cfg.certificates {
            let mut probe = oracle.clone();
            let alive = geom.fallible.iter().fold(geom.pinned, |b, &i| b | 1 << i);
            seed_certs(
                &mut probe,
                [
                    EdgeMask::from_bits(alive, geom.edge_count),
                    EdgeMask::from_bits(geom.pinned, geom.edge_count),
                ],
                &mut seed_stats,
            )
        } else {
            Vec::new()
        };
        seeds.extend(warm.iter().copied().take(cfg.cache_size));
        let pieces = split_ranges(&work, rayon::current_num_threads() * 8);
        let results: Vec<_> = pieces
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut local = oracle.clone();
                local.set_incremental(cfg.incremental);
                local.invalidate_warm();
                let mut cache = seeded_cache(cfg, &seeds);
                let mut stats = SweepStats::default();
                let mut f = A::empty();
                let mut x = A::empty();
                let stop = sum_range_guarded::<W, A, O>(
                    &mut local, &mut cache, &mut stats, lo, hi, geom, &wt, weights, sentinel,
                    &mut f, &mut x,
                );
                stats.absorb_repairs(&local.take_repair_stats());
                let certs = cache.map(|c| c.export()).unwrap_or_default();
                (f, x, stop.map(|s| (s, hi)), certs, stats)
            })
            .collect_vec();
        // merge in piece order: deterministic for a fixed piece layout
        let mut stats = seed_stats;
        let mut remaining = Vec::new();
        let mut certs = Vec::new();
        for (f, x, leftover, ex, st) in results {
            feasible.merge(f);
            explored.merge(x);
            remaining.extend(leftover);
            certs.extend(ex);
            stats.merge(&st);
        }
        certs.truncate(4 * cfg.cache_size.max(1));
        let partial = PartialSum {
            feasible,
            explored,
            remaining: coalesce(remaining),
            certs,
        };
        (partial, stats)
    } else {
        let mut local = oracle.clone();
        local.set_incremental(cfg.incremental);
        let mut cache = seeded_cache(cfg, &warm);
        let mut stats = SweepStats::default();
        let mut remaining = Vec::new();
        for (k, &(lo, hi)) in work.iter().enumerate() {
            // warm flows never survive a range boundary (fresh start and
            // every resume gap) — the verdict stream stays independent of
            // how the walk was sliced
            local.invalidate_warm();
            if let Some(stop) = sum_range_guarded::<W, A, O>(
                &mut local,
                &mut cache,
                &mut stats,
                lo,
                hi,
                geom,
                &wt,
                weights,
                sentinel,
                &mut feasible,
                &mut explored,
            ) {
                remaining.push((stop, hi));
                remaining.extend_from_slice(&work[k + 1..]);
                break;
            }
        }
        stats.absorb_repairs(&local.take_repair_stats());
        let certs = cache.map(|c| c.export()).unwrap_or_default();
        let partial = PartialSum {
            feasible,
            explored,
            remaining,
            certs,
        };
        (partial, stats)
    }
}

/// One worker's share of [`sweep_sum_budgeted`]: Gray-code walk over
/// `lo..hi` with O(1) mask maintenance, split-product weights, and a budget
/// poll every [`BATCH`] configurations. Returns `Some(cursor)` when the
/// budget stopped the walk with `cursor..hi` unexamined, `None` when done.
#[allow(clippy::too_many_arguments)]
fn sum_range_guarded<W, A, O>(
    oracle: &mut O,
    cache: &mut Option<CertCache>,
    stats: &mut SweepStats,
    lo: u64,
    hi: u64,
    geom: &SweepGeometry<'_>,
    wt: &WeightTable<W>,
    weights: &[(W, W)],
    sentinel: &BudgetSentinel,
    feasible: &mut A,
    explored: &mut A,
) -> Option<u64>
where
    W: Weight,
    A: SweepAccumulator<W>,
    O: SweepOracle,
{
    if lo >= hi {
        return None;
    }
    let track = !sentinel.is_unlimited();
    // Gray code of the starting index; `bits` scatters it onto the full
    // edge numbering.
    let mut g = lo ^ (lo >> 1);
    let mut bits = geom.pinned;
    let mut rest = g;
    while rest != 0 {
        let j = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        bits |= 1 << geom.fallible[j];
    }
    let mut high = wt.high_product(weights, g >> wt.low_bits);
    let mut c = lo;
    while c < hi {
        let granted = sentinel.grant(1, (hi - c).min(BATCH));
        if granted == 0 {
            return Some(c);
        }
        for _ in 0..granted {
            let ok = classify_or_solve(
                oracle,
                cache,
                EdgeMask::from_bits(bits, geom.edge_count),
                stats,
            );
            if track {
                let w = wt.weight(g, &high);
                if ok {
                    feasible.add(w.clone());
                }
                explored.add(w);
            } else if ok {
                feasible.add(wt.weight(g, &high));
            }
            c += 1;
            if c >= hi {
                break;
            }
            // successive Gray codes differ in exactly bit tz(c)
            let flip = c.trailing_zeros() as usize;
            g ^= 1 << flip;
            bits ^= 1 << geom.fallible[flip];
            if flip >= wt.low_bits {
                high = wt.high_product(weights, g >> wt.low_bits);
            }
        }
    }
    None
}

/// Geometry of a mixed-radix sweep over a tranche-expanded network (see
/// [`netgraph::spectrum`]): configuration `c ∈ [0, Π radices)` decodes into
/// one state digit per fallible link, and digit `j` holding value `v` means
/// tranche arcs `1..=v` of that link are alive in the expanded edge mask.
///
/// Binary networks never build one of these — they keep the plain
/// [`SweepGeometry`] bitmask path — so an all-binary instance takes exactly
/// the same code bit for bit whether or not this type exists.
pub struct MixedGeometry {
    /// Per-digit radix (number of states), in digit order.
    radices: Vec<u32>,
    /// `tranche_bits[j][i]`: single-bit mask of the expanded arc that flips
    /// when digit `j` steps between values `i` and `i + 1`.
    tranche_bits: Vec<Vec<u64>>,
    /// `value_bits[j][v]`: OR of the tranche bits alive at digit value `v`.
    value_bits: Vec<Vec<u64>>,
    /// Mixed-radix place values: `place[j] = Π_{i<j} radices[i]`, with
    /// `place[digits] = Π radices` (the configuration total).
    place: Vec<u64>,
    /// Expanded-arc bits pinned alive in every configuration.
    pinned: u64,
    /// Expanded-arc count (full mask width).
    edge_count: usize,
}

impl MixedGeometry {
    /// Builds the sweep geometry of a tranche expansion. Returns `None` when
    /// `Π radices` overflows the sweep cursor (no such sweep is enumerable
    /// anyway).
    pub fn from_expansion(x: &StateExpansion) -> Option<MixedGeometry> {
        x.config_total()?;
        let mut place = Vec::with_capacity(x.digits.len() + 1);
        let mut p = 1u64;
        for d in &x.digits {
            place.push(p);
            p *= d.radix as u64;
        }
        place.push(p);
        Some(MixedGeometry {
            radices: x.digits.iter().map(|d| d.radix as u32).collect(),
            tranche_bits: x
                .digits
                .iter()
                .map(|d| d.tranche_arcs.iter().map(|&a| 1u64 << a).collect())
                .collect(),
            value_bits: x
                .digits
                .iter()
                .map(|d| (0..d.radix).map(|v| d.value_bits(v)).collect())
                .collect(),
            place,
            pinned: x.pinned,
            edge_count: x.net.edge_count(),
        })
    }

    /// Number of state digits (fallible links).
    pub fn digits(&self) -> usize {
        self.radices.len()
    }

    /// Total number of configurations `Π radices`.
    pub fn total(&self) -> u64 {
        *self.place.last().unwrap_or(&1)
    }

    /// The per-digit radices.
    pub fn radices(&self) -> &[u32] {
        &self.radices
    }

    /// Expanded mask with every tranche alive (all links in their best
    /// state).
    fn best_bits(&self) -> u64 {
        self.value_bits
            .iter()
            .zip(&self.radices)
            .fold(self.pinned, |b, (vb, &r)| b | vb[r as usize - 1])
    }
}

/// Split-product weight table for mixed-radix digits, the analogue of
/// [`WeightTable`]: the low factor tabulates every combination of the first
/// `low_digits` digits (at most `2^BLOCK_BITS` entries), the high factor is
/// a product over the remaining digits that changes only when one of them
/// steps.
struct MixedWeightTable<W> {
    low: Vec<W>,
    low_digits: usize,
    low_size: u64,
}

impl<W: Weight> MixedWeightTable<W> {
    /// `weights[j][v]` is the probability weight of digit `j` holding state
    /// `v`.
    fn new(weights: &[Vec<W>], radices: &[u32]) -> Self {
        let mut b = 0usize;
        let mut size = 1u64;
        while b < radices.len() && size * radices[b] as u64 <= 1u64 << BLOCK_BITS {
            size *= radices[b] as u64;
            b += 1;
        }
        let mut low = vec![W::one()];
        for (j, w) in weights.iter().enumerate().take(b) {
            let mut next = Vec::with_capacity(low.len() * radices[j] as usize);
            for v in w {
                for t in &low {
                    next.push(t.mul(v));
                }
            }
            low = next;
        }
        MixedWeightTable {
            low,
            low_digits: b,
            low_size: size,
        }
    }

    /// Product over the digits at positions `low_digits..` for the digit
    /// values in `g`.
    fn high_product(&self, weights: &[Vec<W>], g: &[u32]) -> W {
        let mut p = W::one();
        for (w, &v) in weights.iter().zip(g).skip(self.low_digits) {
            p = p.mul(&w[v as usize]);
        }
        p
    }

    /// Weight of the configuration whose Gray digit value is `gval`, given
    /// its block's high product.
    fn weight(&self, gval: u64, high: &W) -> W {
        self.low[(gval % self.low_size) as usize].mul(high)
    }
}

/// The cursor state of a mixed-radix reflected Gray walk.
///
/// Like the binary Gray code, successive configurations differ in exactly
/// one digit by ±1, so exactly one tranche arc of the expanded network flips
/// per step — which is what keeps monotonicity certificates and warm-start
/// flow repair exactly as effective as in the binary sweep. The reflected
/// construction is the standard one (Knuth 7.2.1.1): digit `j` sweeps
/// `0..radix` ascending or descending depending on the parity of the plain
/// value of the digits above it.
struct MixedWalker {
    /// Plain mixed-radix digits of the current index `c`.
    a: Vec<u32>,
    /// Reflected Gray digits of `c` (the digits actually realized).
    g: Vec<u32>,
    /// Gray digits re-encoded as a mixed-radix value, indexing the weight
    /// table.
    gval: u64,
    /// Expanded-arc mask bits realized by `g` (pinned bits included).
    bits: u64,
}

impl MixedWalker {
    /// Decodes the walk state at an arbitrary index `lo` — worker ranges and
    /// checkpoint resumes start mid-sequence.
    fn at(geom: &MixedGeometry, lo: u64) -> MixedWalker {
        let d = geom.digits();
        let mut a = vec![0u32; d];
        let mut g = vec![0u32; d];
        let mut gval = 0u64;
        let mut bits = geom.pinned;
        for j in 0..d {
            let r = geom.radices[j];
            a[j] = ((lo / geom.place[j]) % r as u64) as u32;
            let above = lo / geom.place[j + 1];
            g[j] = if above & 1 == 0 { a[j] } else { r - 1 - a[j] };
            gval += g[j] as u64 * geom.place[j];
            bits |= geom.value_bits[j][g[j] as usize];
        }
        MixedWalker { a, g, gval, bits }
    }

    /// Advances from index `c` to `c + 1`; returns the digit that stepped.
    /// `c + 1` must be in range (the caller owns the bounds check).
    fn step(&mut self, geom: &MixedGeometry, c_next: u64) -> usize {
        let mut t = 0usize;
        while self.a[t] == geom.radices[t] - 1 {
            self.a[t] = 0;
            t += 1;
        }
        self.a[t] += 1;
        let above = c_next / geom.place[t + 1];
        if above & 1 == 0 {
            // digit t sweeps ascending here: g[t] follows a[t] up
            self.bits ^= geom.tranche_bits[t][self.g[t] as usize];
            self.g[t] += 1;
            self.gval += geom.place[t];
        } else {
            self.g[t] -= 1;
            self.bits ^= geom.tranche_bits[t][self.g[t] as usize];
            self.gval -= geom.place[t];
        }
        t
    }
}

/// Mixed-radix form of [`sweep_sum`]: sums the weights of all feasible state
/// configurations of a tranche expansion, where `weights[j][v]` is the
/// probability of digit `j` holding state `v`.
pub fn sweep_sum_mixed<W, A, O>(
    oracle: &O,
    geom: &MixedGeometry,
    weights: &[Vec<W>],
    cfg: &SweepConfig,
) -> (W, SweepStats)
where
    W: Weight,
    A: SweepAccumulator<W>,
    O: SweepOracle + Clone + Send + Sync,
{
    let sentinel = BudgetSentinel::unlimited();
    let (partial, stats) =
        sweep_sum_mixed_budgeted::<W, A, O>(oracle, geom, weights, cfg, &sentinel, None);
    debug_assert!(partial.is_complete(), "unlimited sweeps always finish");
    (partial.feasible.finish(), stats)
}

/// Budget-guarded form of [`sweep_sum_mixed`], the exact analogue of
/// [`sweep_sum_budgeted`]: same partial-sum contract, same bit-identical
/// serial resume guarantee, same chunked parallel fan-out (the reflected
/// Gray walk decodes at any index, so workers and resumed runs start
/// mid-sequence just like the binary engine).
#[allow(clippy::too_many_arguments)]
pub fn sweep_sum_mixed_budgeted<W, A, O>(
    oracle: &O,
    geom: &MixedGeometry,
    weights: &[Vec<W>],
    cfg: &SweepConfig,
    sentinel: &BudgetSentinel,
    resume: Option<PartialSum<A>>,
) -> (PartialSum<A>, SweepStats)
where
    W: Weight,
    A: SweepAccumulator<W>,
    O: SweepOracle + Clone + Send + Sync,
{
    let d = geom.digits();
    assert_eq!(weights.len(), d, "one weight vector per state digit");
    let total = geom.total();
    let wt = MixedWeightTable::new(weights, &geom.radices);
    let (mut feasible, mut explored, work, warm) = match resume {
        Some(p) => (p.feasible, p.explored, coalesce(p.remaining), p.certs),
        None => (A::empty(), A::empty(), vec![(0, total)], Vec::new()),
    };
    debug_assert!(work.iter().all(|&(_, hi)| hi <= total));
    if cfg.fan_out(d, ranges_len(&work)) {
        let mut seed_stats = SweepStats::default();
        let mut seeds = if cfg.certificates {
            let mut probe = oracle.clone();
            seed_certs(
                &mut probe,
                [
                    EdgeMask::from_bits(geom.best_bits(), geom.edge_count),
                    EdgeMask::from_bits(geom.pinned, geom.edge_count),
                ],
                &mut seed_stats,
            )
        } else {
            Vec::new()
        };
        seeds.extend(warm.iter().copied().take(cfg.cache_size));
        let pieces = split_ranges(&work, rayon::current_num_threads() * 8);
        let results: Vec<_> = pieces
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut local = oracle.clone();
                local.set_incremental(cfg.incremental);
                local.invalidate_warm();
                let mut cache = seeded_cache(cfg, &seeds);
                let mut stats = SweepStats::default();
                let mut f = A::empty();
                let mut x = A::empty();
                let stop = sum_range_guarded_mixed::<W, A, O>(
                    &mut local, &mut cache, &mut stats, lo, hi, geom, &wt, weights, sentinel,
                    &mut f, &mut x,
                );
                stats.absorb_repairs(&local.take_repair_stats());
                let certs = cache.map(|c| c.export()).unwrap_or_default();
                (f, x, stop.map(|s| (s, hi)), certs, stats)
            })
            .collect_vec();
        let mut stats = seed_stats;
        let mut remaining = Vec::new();
        let mut certs = Vec::new();
        for (f, x, leftover, ex, st) in results {
            feasible.merge(f);
            explored.merge(x);
            remaining.extend(leftover);
            certs.extend(ex);
            stats.merge(&st);
        }
        certs.truncate(4 * cfg.cache_size.max(1));
        let partial = PartialSum {
            feasible,
            explored,
            remaining: coalesce(remaining),
            certs,
        };
        (partial, stats)
    } else {
        let mut local = oracle.clone();
        local.set_incremental(cfg.incremental);
        let mut cache = seeded_cache(cfg, &warm);
        let mut stats = SweepStats::default();
        let mut remaining = Vec::new();
        for (k, &(lo, hi)) in work.iter().enumerate() {
            local.invalidate_warm();
            if let Some(stop) = sum_range_guarded_mixed::<W, A, O>(
                &mut local,
                &mut cache,
                &mut stats,
                lo,
                hi,
                geom,
                &wt,
                weights,
                sentinel,
                &mut feasible,
                &mut explored,
            ) {
                remaining.push((stop, hi));
                remaining.extend_from_slice(&work[k + 1..]);
                break;
            }
        }
        stats.absorb_repairs(&local.take_repair_stats());
        let certs = cache.map(|c| c.export()).unwrap_or_default();
        let partial = PartialSum {
            feasible,
            explored,
            remaining,
            certs,
        };
        (partial, stats)
    }
}

/// One worker's share of [`sweep_sum_mixed_budgeted`]: reflected-Gray walk
/// over `lo..hi` with one tranche-arc flip per step, split-product weights,
/// and a budget poll every [`BATCH`] configurations.
#[allow(clippy::too_many_arguments)]
fn sum_range_guarded_mixed<W, A, O>(
    oracle: &mut O,
    cache: &mut Option<CertCache>,
    stats: &mut SweepStats,
    lo: u64,
    hi: u64,
    geom: &MixedGeometry,
    wt: &MixedWeightTable<W>,
    weights: &[Vec<W>],
    sentinel: &BudgetSentinel,
    feasible: &mut A,
    explored: &mut A,
) -> Option<u64>
where
    W: Weight,
    A: SweepAccumulator<W>,
    O: SweepOracle,
{
    if lo >= hi {
        return None;
    }
    let track = !sentinel.is_unlimited();
    let mut walker = MixedWalker::at(geom, lo);
    let mut high = wt.high_product(weights, &walker.g);
    let mut c = lo;
    while c < hi {
        let granted = sentinel.grant(1, (hi - c).min(BATCH));
        if granted == 0 {
            return Some(c);
        }
        for _ in 0..granted {
            let ok = classify_or_solve(
                oracle,
                cache,
                EdgeMask::from_bits(walker.bits, geom.edge_count),
                stats,
            );
            if track {
                let w = wt.weight(walker.gval, &high);
                if ok {
                    feasible.add(w.clone());
                }
                explored.add(w);
            } else if ok {
                feasible.add(wt.weight(walker.gval, &high));
            }
            c += 1;
            if c >= hi {
                break;
            }
            let t = walker.step(geom, c);
            if t >= wt.low_digits {
                high = wt.high_product(weights, &walker.g);
            }
        }
    }
    None
}

/// The state of a (possibly interrupted) [`sweep_spectrum_budgeted`] run.
///
/// `remaining` empty means `mass` is the complete realization spectrum.
/// Otherwise `mass` holds the mass of the side configurations examined so
/// far (so it sums to the explored probability, not to 1), and `remaining`
/// lists the unexamined configuration ranges.
pub struct PartialSpectrum<W> {
    /// Per-realization-mask accumulated mass over the examined
    /// configurations.
    pub mass: Vec<W>,
    /// Half-open `[lo, hi)` configuration ranges not yet examined, ascending.
    pub remaining: Vec<(u64, u64)>,
    /// Certificates per live assignment, to warm-start a resumed run
    /// (advisory; may be empty).
    pub certs: Vec<Vec<SolveCert>>,
}

impl<W> PartialSpectrum<W> {
    /// Whether every side configuration has been examined.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Number of side configurations not yet examined.
    pub fn remaining_configs(&self) -> u64 {
        ranges_len(&self.remaining)
    }
}

/// Builds the realization-spectrum masses for one side: `mass[r]` = total
/// probability of side configurations whose realization mask over the `live`
/// assignments is exactly `r`. `weights[i]` is the `(alive, failed)` pair of
/// side link `i`; `assign_count` sizes the mask space.
pub fn sweep_spectrum<W: Weight>(
    oracle: &SideOracle,
    live: &[usize],
    weights: &[(W, W)],
    assign_count: usize,
    cfg: &SweepConfig,
) -> (Vec<W>, SweepStats) {
    let sentinel = BudgetSentinel::unlimited();
    let (partial, stats) =
        sweep_spectrum_budgeted(oracle, live, weights, assign_count, cfg, &sentinel, None);
    debug_assert!(partial.is_complete(), "unlimited sweeps always finish");
    (partial.mass, stats)
}

/// Budget-guarded form of [`sweep_spectrum`]. The budget is charged
/// `live.len()` units per configuration (one solver question per live
/// assignment). Serial interrupted-and-resumed runs reproduce the
/// uninterrupted spectrum bit for bit: the per-slot mass additions happen in
/// the same ascending-configuration order either way.
#[allow(clippy::too_many_arguments)]
pub fn sweep_spectrum_budgeted<W: Weight>(
    oracle: &SideOracle,
    live: &[usize],
    weights: &[(W, W)],
    assign_count: usize,
    cfg: &SweepConfig,
    sentinel: &BudgetSentinel,
    resume: Option<PartialSpectrum<W>>,
) -> (PartialSpectrum<W>, SweepStats) {
    let m = oracle.edge_count();
    assert_eq!(weights.len(), m, "one weight pair per side link");
    let total = 1u64 << m;
    let size = 1usize << assign_count;
    let wt = WeightTable::new(weights);
    let (mut mass, work, warm) = match resume {
        Some(p) => (p.mass, coalesce(p.remaining), p.certs),
        None => (vec![W::zero(); size], vec![(0, total)], Vec::new()),
    };
    debug_assert_eq!(mass.len(), size, "resumed spectrum must match |D|");
    debug_assert!(work.iter().all(|&(_, hi)| hi <= total));
    let unit = live.len().max(1) as u64;
    if cfg.fan_out(m, ranges_len(&work) * unit) {
        let (mut seeds, seed_stats) = side_seeds(oracle, live, cfg);
        for (s, w) in seeds.iter_mut().zip(&warm) {
            s.extend(w.iter().copied().take(cfg.cache_size));
        }
        let pieces = split_ranges(&work, rayon::current_num_threads() * 8);
        let results: Vec<_> = pieces
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut local = oracle.clone();
                local.set_incremental(cfg.incremental);
                local.invalidate_warm();
                let mut caches: Vec<Option<CertCache>> =
                    seeds.iter().map(|s| seeded_cache(cfg, s)).collect();
                let mut stats = SweepStats::default();
                let mut part = vec![W::zero(); size];
                let stop = spectrum_range_guarded(
                    &mut local,
                    &mut caches,
                    live,
                    lo,
                    hi,
                    &wt,
                    weights,
                    &mut part,
                    sentinel,
                    &mut stats,
                );
                stats.absorb_repairs(&local.take_repair_stats());
                (part, stop.map(|s| (s, hi)), stats)
            })
            .collect_vec();
        let mut stats = seed_stats;
        let mut remaining = Vec::new();
        for (part, leftover, st) in results {
            for (x, y) in mass.iter_mut().zip(&part) {
                *x = x.add(y);
            }
            remaining.extend(leftover);
            stats.merge(&st);
        }
        let partial = PartialSpectrum {
            mass,
            remaining: coalesce(remaining),
            // parallel caches are per worker; exporting one would be
            // arbitrary, and warm-starts are advisory anyway
            certs: Vec::new(),
        };
        (partial, stats)
    } else {
        let mut local = oracle.clone();
        local.set_incremental(cfg.incremental);
        let mut caches: Vec<Option<CertCache>> = (0..live.len())
            .map(|i| seeded_cache(cfg, warm.get(i).map(Vec::as_slice).unwrap_or(&[])))
            .collect();
        let mut stats = SweepStats::default();
        let mut remaining = Vec::new();
        for (k, &(lo, hi)) in work.iter().enumerate() {
            local.invalidate_warm();
            if let Some(stop) = spectrum_range_guarded(
                &mut local,
                &mut caches,
                live,
                lo,
                hi,
                &wt,
                weights,
                &mut mass,
                sentinel,
                &mut stats,
            ) {
                remaining.push((stop, hi));
                remaining.extend_from_slice(&work[k + 1..]);
                break;
            }
        }
        stats.absorb_repairs(&local.take_repair_stats());
        let certs = caches
            .into_iter()
            .map(|c| c.map(|c| c.export()).unwrap_or_default())
            .collect();
        let partial = PartialSpectrum {
            mass,
            remaining,
            certs,
        };
        (partial, stats)
    }
}

/// Seed certificates for a side sweep, one set per live assignment (each
/// assignment has its own cache — certificates are only valid under the
/// assignment they were extracted with).
fn side_seeds(
    oracle: &SideOracle,
    live: &[usize],
    cfg: &SweepConfig,
) -> (Vec<Vec<SolveCert>>, SweepStats) {
    let mut stats = SweepStats::default();
    if !cfg.certificates {
        return (vec![Vec::new(); live.len()], stats);
    }
    let m = oracle.edge_count();
    let mut probe = oracle.clone();
    let seeds = live
        .iter()
        .map(|&j| {
            probe.set_assignment(j);
            seed_certs(
                &mut probe,
                [EdgeMask::all_alive(m), EdgeMask::all_failed(m)],
                &mut stats,
            )
        })
        .collect();
    (seeds, stats)
}

/// One worker's share of [`sweep_spectrum_budgeted`]: per sub-batch of one
/// table block, realize every live assignment (amortizing assignment
/// switches), then accumulate the batch's configuration weights into the
/// mask masses in ascending-configuration order.
#[allow(clippy::too_many_arguments)]
fn spectrum_range_guarded<W: Weight>(
    oracle: &mut SideOracle,
    caches: &mut [Option<CertCache>],
    live: &[usize],
    lo: u64,
    hi: u64,
    wt: &WeightTable<W>,
    weights: &[(W, W)],
    mass: &mut [W],
    sentinel: &BudgetSentinel,
    stats: &mut SweepStats,
) -> Option<u64> {
    let m = oracle.edge_count();
    let block = 1u64 << wt.low_bits;
    let unit = live.len().max(1) as u64;
    let mut realized = [0u32; BATCH as usize];
    let mut blo = lo;
    while blo < hi {
        // stop at the next table-block boundary so one high product covers
        // the whole sub-range
        let bhi = hi.min((blo | (block - 1)) + 1);
        let high = wt.high_product(weights, blo >> wt.low_bits);
        let mut c0 = blo;
        while c0 < bhi {
            let granted = sentinel.grant(unit, (bhi - c0).min(BATCH));
            if granted == 0 {
                return Some(c0);
            }
            let c1 = c0 + granted;
            let n = (c1 - c0) as usize;
            realized[..n].fill(0);
            for (idx, &j) in live.iter().enumerate() {
                oracle.set_assignment(j);
                let cache = &mut caches[idx];
                for c in c0..c1 {
                    if classify_or_solve(oracle, cache, EdgeMask::from_bits(c, m), stats) {
                        realized[(c - c0) as usize] |= 1 << j;
                    }
                }
            }
            for c in c0..c1 {
                let slot = &mut mass[realized[(c - c0) as usize] as usize];
                *slot = slot.add(&wt.weight(c, &high));
            }
            c0 = c1;
        }
        blo = bhi;
    }
    None
}

/// The state of a (possibly interrupted) [`sweep_table_budgeted`] run:
/// `masks[c]` is valid for every examined configuration `c`; entries inside
/// `remaining` are zero.
pub struct PartialTable {
    /// Realization mask per side configuration (zero where unexamined).
    pub masks: Vec<u32>,
    /// Half-open `[lo, hi)` configuration ranges not yet examined, ascending.
    pub remaining: Vec<(u64, u64)>,
}

impl PartialTable {
    /// Whether every side configuration has been examined.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_empty()
    }
}

/// Builds the paper-faithful realization array: `masks[c]` has bit `j` set
/// iff side configuration `c` realizes live assignment `j`.
pub fn sweep_table(
    oracle: &SideOracle,
    live: &[usize],
    cfg: &SweepConfig,
) -> (Vec<u32>, SweepStats) {
    let sentinel = BudgetSentinel::unlimited();
    let (partial, stats) = sweep_table_budgeted(oracle, live, cfg, &sentinel, None);
    debug_assert!(partial.is_complete(), "unlimited sweeps always finish");
    (partial.masks, stats)
}

/// Budget-guarded form of [`sweep_table`]; charged `live.len()` units per
/// configuration, like the spectrum sweep.
pub fn sweep_table_budgeted(
    oracle: &SideOracle,
    live: &[usize],
    cfg: &SweepConfig,
    sentinel: &BudgetSentinel,
    resume: Option<PartialTable>,
) -> (PartialTable, SweepStats) {
    let m = oracle.edge_count();
    let total = 1u64 << m;
    let (mut masks, work) = match resume {
        Some(p) => (p.masks, coalesce(p.remaining)),
        None => (vec![0u32; total as usize], vec![(0, total)]),
    };
    debug_assert_eq!(masks.len(), total as usize);
    debug_assert!(work.iter().all(|&(_, hi)| hi <= total));
    let unit = live.len().max(1) as u64;
    if cfg.fan_out(m, ranges_len(&work) * unit) {
        let (seeds, seed_stats) = side_seeds(oracle, live, cfg);
        let pieces = split_ranges(&work, rayon::current_num_threads() * 8);
        let results: Vec<_> = pieces
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut local = oracle.clone();
                local.set_incremental(cfg.incremental);
                local.invalidate_warm();
                let mut caches: Vec<Option<CertCache>> =
                    seeds.iter().map(|s| seeded_cache(cfg, s)).collect();
                let mut stats = SweepStats::default();
                let (seg, stop) = table_range_guarded(
                    &mut local,
                    &mut caches,
                    live,
                    lo,
                    hi,
                    sentinel,
                    &mut stats,
                );
                stats.absorb_repairs(&local.take_repair_stats());
                (lo, seg, stop.map(|s| (s, hi)), stats)
            })
            .collect_vec();
        let mut stats = seed_stats;
        let mut remaining = Vec::new();
        for (lo, seg, leftover, st) in results {
            let done = leftover.map_or(lo + seg.len() as u64, |(s, _)| s);
            masks[lo as usize..done as usize].copy_from_slice(&seg[..(done - lo) as usize]);
            remaining.extend(leftover);
            stats.merge(&st);
        }
        let partial = PartialTable {
            masks,
            remaining: coalesce(remaining),
        };
        (partial, stats)
    } else {
        let mut local = oracle.clone();
        local.set_incremental(cfg.incremental);
        let mut caches: Vec<Option<CertCache>> = live.iter().map(|_| cfg.cache()).collect();
        let mut stats = SweepStats::default();
        let mut remaining = Vec::new();
        for (k, &(lo, hi)) in work.iter().enumerate() {
            local.invalidate_warm();
            let (seg, stop) =
                table_range_guarded(&mut local, &mut caches, live, lo, hi, sentinel, &mut stats);
            let done = stop.unwrap_or(hi);
            masks[lo as usize..done as usize].copy_from_slice(&seg[..(done - lo) as usize]);
            if let Some(s) = stop {
                remaining.push((s, hi));
                remaining.extend_from_slice(&work[k + 1..]);
                break;
            }
        }
        stats.absorb_repairs(&local.take_repair_stats());
        let partial = PartialTable { masks, remaining };
        (partial, stats)
    }
}

/// One worker's share of [`sweep_table_budgeted`]: config-major over
/// sub-batches of [`BATCH`] configurations, all live assignments per batch.
/// Returns the segment for `lo..hi` (zeros past the stop cursor) and the
/// stop cursor, if any.
fn table_range_guarded(
    oracle: &mut SideOracle,
    caches: &mut [Option<CertCache>],
    live: &[usize],
    lo: u64,
    hi: u64,
    sentinel: &BudgetSentinel,
    stats: &mut SweepStats,
) -> (Vec<u32>, Option<u64>) {
    let m = oracle.edge_count();
    let unit = live.len().max(1) as u64;
    let mut seg = vec![0u32; (hi - lo) as usize];
    let mut c0 = lo;
    while c0 < hi {
        let granted = sentinel.grant(unit, (hi - c0).min(BATCH));
        if granted == 0 {
            return (seg, Some(c0));
        }
        let c1 = c0 + granted;
        for (idx, &j) in live.iter().enumerate() {
            oracle.set_assignment(j);
            let cache = &mut caches[idx];
            for c in c0..c1 {
                if classify_or_solve(oracle, cache, EdgeMask::from_bits(c, m), stats) {
                    seg[(c - lo) as usize] |= 1 << j;
                }
            }
        }
        c0 = c1;
    }
    (seg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::demand::FlowDemand;
    use maxflow::SolverKind;
    use netgraph::{GraphKind, Network, NetworkBuilder, NodeId};

    fn table_weight<W: Weight>(weights: &[(W, W)], g: u64) -> W {
        let mut p = W::one();
        for (i, w) in weights.iter().enumerate() {
            p = p.mul(if g >> i & 1 == 1 { &w.0 } else { &w.1 });
        }
        p
    }

    #[test]
    fn stats_merge_and_rates() {
        let mut a = SweepStats {
            configs: 8,
            solver_calls: 2,
            feasible_hits: 4,
            infeasible_hits: 2,
            ..Default::default()
        };
        let b = SweepStats {
            configs: 8,
            solver_calls: 8,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.configs, 16);
        assert_eq!(a.solver_calls_avoided(), 6);
        assert!((a.hit_rate() - 6.0 / 16.0).abs() < 1e-15);
        assert_eq!(SweepStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn weight_table_matches_direct_product() {
        let weights: Vec<(f64, f64)> = (0..15)
            .map(|i| (0.9 - 0.01 * i as f64, 0.1 + 0.01 * i as f64))
            .collect();
        let wt = WeightTable::new(&weights);
        for g in [0u64, 1, 0xfff, 0x1000, 0x7abc, (1 << 15) - 1] {
            let high = wt.high_product(&weights, g >> wt.low_bits);
            let direct = table_weight(&weights, g);
            assert!((wt.weight(g, &high) - direct).abs() < 1e-15, "g={g:#x}");
        }
    }

    #[test]
    fn weight_table_handles_tiny_and_empty() {
        let weights: Vec<(f64, f64)> = vec![(0.8, 0.2)];
        let wt = WeightTable::new(&weights);
        let high = wt.high_product(&weights, 0);
        assert!((wt.weight(0, &high) - 0.2).abs() < 1e-15);
        assert!((wt.weight(1, &high) - 0.8).abs() < 1e-15);
        let empty: Vec<(f64, f64)> = Vec::new();
        let wt0 = WeightTable::new(&empty);
        assert!((wt0.weight(0, &wt0.high_product(&empty, 0)) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn coalesce_merges_and_sorts() {
        assert_eq!(coalesce(vec![]), vec![]);
        assert_eq!(coalesce(vec![(5, 5), (3, 3)]), vec![]);
        assert_eq!(
            coalesce(vec![(8, 10), (0, 4), (4, 6)]),
            vec![(0, 6), (8, 10)]
        );
        assert_eq!(coalesce(vec![(0, 5), (2, 3), (4, 9)]), vec![(0, 9)]);
    }

    #[test]
    fn split_ranges_covers_exactly() {
        let work = vec![(0u64, 10u64), (20, 23)];
        let pieces = split_ranges(&work, 4);
        assert_eq!(ranges_len(&pieces), 13);
        assert_eq!(coalesce(pieces), work);
        assert!(split_ranges(&[], 4).is_empty());
        // one part: ranges come back as-is
        assert_eq!(split_ranges(&work, 1), work);
    }

    fn diamond() -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[2], 1, 0.2).unwrap();
        b.add_edge(n[1], n[3], 1, 0.3).unwrap();
        b.add_edge(n[2], n[3], 1, 0.4).unwrap();
        b.build()
    }

    fn sum_with(cfg: &SweepConfig) -> (f64, SweepStats) {
        let net = diamond();
        let d = FlowDemand::new(NodeId(0), NodeId(3), 1);
        let oracle = DemandOracle::new(&net, d.source, d.sink, d.demand, SolverKind::Dinic);
        let fallible: Vec<usize> = (0..4).collect();
        let weights: Vec<(f64, f64)> = net
            .edges()
            .iter()
            .map(|e| (1.0 - e.fail_prob, e.fail_prob))
            .collect();
        let geom = SweepGeometry {
            fallible: &fallible,
            pinned: 0,
            edge_count: 4,
        };
        sweep_sum::<f64, CompensatedAcc, _>(&oracle, &geom, &weights, cfg)
    }

    #[test]
    fn gray_sweep_sums_feasible_probability() {
        // diamond, demand 1: R = 1 - (1 - 0.9*0.7)(1 - 0.8*0.6)
        let expected = 1.0 - (1.0 - 0.9 * 0.7) * (1.0 - 0.8 * 0.6);
        let (r, stats) = sum_with(&SweepConfig::serial());
        assert!((r - expected).abs() < 1e-12, "{r} vs {expected}");
        assert_eq!(stats.configs, 16);
        assert_eq!(stats.solver_calls, 16);
        assert_eq!(stats.solver_calls_avoided(), 0);
    }

    #[test]
    fn certificates_preserve_the_sum_and_avoid_solves() {
        let (r0, _) = sum_with(&SweepConfig::serial());
        let cfg = SweepConfig {
            certificates: true,
            cache_size: 16,
            ..SweepConfig::serial()
        };
        let (r1, stats) = sum_with(&cfg);
        assert_eq!(r1, r0, "serial cert-cached sweep must be bit-identical");
        assert!(
            stats.solver_calls_avoided() > 0,
            "16 configs must yield hits"
        );
        assert_eq!(
            stats.solver_calls + stats.solver_calls_avoided(),
            stats.configs
        );
    }

    #[test]
    fn incremental_sweep_is_bit_identical_and_repairs_in_place() {
        let (r0, _) = sum_with(&SweepConfig::serial());
        let cfg = SweepConfig {
            incremental: true,
            ..SweepConfig::serial()
        };
        let (r1, stats) = sum_with(&cfg);
        assert_eq!(
            r1.to_bits(),
            r0.to_bits(),
            "incremental repair must not change any verdict"
        );
        assert!(
            stats.full_resolves >= 1,
            "cold start re-solves from scratch"
        );
        assert!(
            stats.repairs > 0,
            "Gray steps must repair the warm flow in place: {stats:?}"
        );
        assert!(stats.flips >= stats.repairs, "every repair applies ≥1 flip");
    }

    #[test]
    fn fan_out_honors_parallel_threshold() {
        let par = SweepConfig {
            parallel: true,
            parallel_threshold: 10_000,
            ..SweepConfig::serial()
        };
        assert!(!par.fan_out(12, 4_096), "small sweeps stay serial");
        assert!(par.fan_out(14, 16_384), "big sweeps fan out");
        assert!(!par.fan_out(4, 1 << 20), "tiny exponents stay serial");
        assert!(!SweepConfig::serial().fan_out(20, 1 << 20));
    }

    #[test]
    fn pinned_edges_stay_alive() {
        let net = diamond();
        let d = FlowDemand::new(NodeId(0), NodeId(3), 1);
        let oracle = DemandOracle::new(&net, d.source, d.sink, d.demand, SolverKind::Dinic);
        // pin edge 0 alive, enumerate the rest
        let fallible = [1usize, 2, 3];
        let weights: Vec<(f64, f64)> = fallible
            .iter()
            .map(|&i| (1.0 - net.edges()[i].fail_prob, net.edges()[i].fail_prob))
            .collect();
        let geom = SweepGeometry {
            fallible: &fallible,
            pinned: 0b0001,
            edge_count: 4,
        };
        let (r, stats) =
            sweep_sum::<f64, CompensatedAcc, _>(&oracle, &geom, &weights, &SweepConfig::serial());
        // edge 0 alive with probability 1: R = 1 - (1 - 0.7)(1 - 0.8*0.6)
        let expected = 1.0 - (1.0 - 0.7) * (1.0 - 0.8 * 0.6);
        assert!((r - expected).abs() < 1e-12, "{r} vs {expected}");
        assert_eq!(stats.configs, 8);
    }

    #[test]
    fn budgeted_sum_stops_and_resumes_bit_identical() {
        let net = diamond();
        let d = FlowDemand::new(NodeId(0), NodeId(3), 1);
        let oracle = DemandOracle::new(&net, d.source, d.sink, d.demand, SolverKind::Dinic);
        let fallible: Vec<usize> = (0..4).collect();
        let weights: Vec<(f64, f64)> = net
            .edges()
            .iter()
            .map(|e| (1.0 - e.fail_prob, e.fail_prob))
            .collect();
        let geom = SweepGeometry {
            fallible: &fallible,
            pinned: 0,
            edge_count: 4,
        };
        let cfg = SweepConfig {
            certificates: true,
            cache_size: 8,
            ..SweepConfig::serial()
        };
        let (full, _) = sweep_sum::<f64, CompensatedAcc, _>(&oracle, &geom, &weights, &cfg);

        // resume in slices of at most 5 configurations each
        let mut partial: Option<PartialSum<CompensatedAcc>> = None;
        let mut rounds = 0;
        loop {
            let budget = Budget {
                max_configs: Some(5),
                ..Default::default()
            };
            let sentinel = budget.start();
            let (p, _) = sweep_sum_budgeted::<f64, CompensatedAcc, _>(
                &oracle,
                &geom,
                &weights,
                &cfg,
                &sentinel,
                partial.take(),
            );
            rounds += 1;
            if p.is_complete() {
                assert_eq!(
                    p.feasible.finish().to_bits(),
                    full.to_bits(),
                    "serial resume must be bit-identical"
                );
                break;
            }
            assert!(p.remaining_configs() < 16);
            partial = Some(p);
        }
        assert!(
            rounds >= 3,
            "16 configs in 5-config slices: {rounds} rounds"
        );
    }

    fn mixed_fixture() -> (Network, StateExpansion) {
        // s→t: a 3-state link {0: 0.2, 1: 0.3, 2: 0.5} in parallel with a
        // binary link (cap 1, p = 0.4); demand 2.
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let s = b.add_node();
        let t = b.add_node();
        b.add_spectrum_edge(s, t, &[(0, 0.2), (1, 0.3), (2, 0.5)])
            .unwrap();
        b.add_edge(s, t, 1, 0.4).unwrap();
        let net = b.build();
        let x = StateExpansion::build(&net).unwrap();
        (net, x)
    }

    #[test]
    fn mixed_walker_visits_every_config_once_one_flip_apart() {
        let (_, x) = mixed_fixture();
        let geom = MixedGeometry::from_expansion(&x).unwrap();
        assert_eq!(geom.total(), 6);
        let mut w = MixedWalker::at(&geom, 0);
        let mut seen = std::collections::HashSet::new();
        seen.insert(w.bits);
        let mut prev = w.bits;
        for c in 1..geom.total() {
            w.step(&geom, c);
            assert_eq!(
                (w.bits ^ prev).count_ones(),
                1,
                "exactly one tranche arc flips per step"
            );
            prev = w.bits;
            assert!(seen.insert(w.bits), "mask revisited at c={c}");
            // decoding at c must agree with stepping to c
            let direct = MixedWalker::at(&geom, c);
            assert_eq!(direct.bits, w.bits);
            assert_eq!(direct.g, w.g);
            assert_eq!(direct.gval, w.gval);
        }
        assert_eq!(seen.len(), 6, "all 6 configurations visited");
    }

    #[test]
    fn mixed_walker_matches_binary_gray_on_all_binary_radices() {
        // a 4-digit all-binary instance: the reflected mixed-radix walk must
        // realize exactly the classic Gray sequence c ^ (c >> 1)
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let s = b.add_node();
        let t = b.add_node();
        for i in 0..4 {
            b.add_edge(s, t, 1, 0.1 + 0.1 * i as f64).unwrap();
        }
        let net = b.build();
        let x = StateExpansion::build(&net).unwrap();
        let geom = MixedGeometry::from_expansion(&x).unwrap();
        let mut w = MixedWalker::at(&geom, 0);
        for c in 0..16u64 {
            if c > 0 {
                w.step(&geom, c);
            }
            assert_eq!(w.bits, c ^ (c >> 1), "c={c}");
            assert_eq!(w.gval, c ^ (c >> 1));
        }
    }

    #[test]
    fn mixed_sweep_sums_state_probabilities() {
        let (_, x) = mixed_fixture();
        let geom = MixedGeometry::from_expansion(&x).unwrap();
        let oracle = DemandOracle::new(&x.net, NodeId(0), NodeId(1), 2, SolverKind::Dinic);
        let weights: Vec<Vec<f64>> = x.digits.iter().map(|d| d.probs.clone()).collect();
        // P(c1 + c2 ≥ 2) = P(c1=2) + P(c1=1)·P(c2=1) = 0.5 + 0.3·0.6
        let expected = 0.5 + 0.3 * 0.6;
        for cfg in [
            SweepConfig::serial(),
            SweepConfig {
                certificates: true,
                cache_size: 8,
                ..SweepConfig::serial()
            },
            SweepConfig {
                incremental: true,
                ..SweepConfig::serial()
            },
        ] {
            let (r, stats) =
                sweep_sum_mixed::<f64, CompensatedAcc, _>(&oracle, &geom, &weights, &cfg);
            assert!((r - expected).abs() < 1e-12, "{r} vs {expected}");
            assert_eq!(stats.configs, 6);
        }
    }

    #[test]
    fn mixed_budgeted_sum_stops_and_resumes_bit_identical() {
        let (_, x) = mixed_fixture();
        let geom = MixedGeometry::from_expansion(&x).unwrap();
        let oracle = DemandOracle::new(&x.net, NodeId(0), NodeId(1), 2, SolverKind::Dinic);
        let weights: Vec<Vec<f64>> = x.digits.iter().map(|d| d.probs.clone()).collect();
        let cfg = SweepConfig {
            certificates: true,
            cache_size: 8,
            ..SweepConfig::serial()
        };
        let (full, _) = sweep_sum_mixed::<f64, CompensatedAcc, _>(&oracle, &geom, &weights, &cfg);
        let mut partial: Option<PartialSum<CompensatedAcc>> = None;
        let mut rounds = 0;
        loop {
            let budget = Budget {
                max_configs: Some(2),
                ..Default::default()
            };
            let sentinel = budget.start();
            let (p, _) = sweep_sum_mixed_budgeted::<f64, CompensatedAcc, _>(
                &oracle,
                &geom,
                &weights,
                &cfg,
                &sentinel,
                partial.take(),
            );
            rounds += 1;
            if p.is_complete() {
                assert_eq!(
                    p.feasible.finish().to_bits(),
                    full.to_bits(),
                    "serial mixed resume must be bit-identical"
                );
                break;
            }
            partial = Some(p);
        }
        assert!(rounds >= 3, "6 configs in 2-config slices: {rounds} rounds");
    }

    #[test]
    fn partial_sum_bounds_bracket_the_exact_value() {
        let net = diamond();
        let d = FlowDemand::new(NodeId(0), NodeId(3), 1);
        let oracle = DemandOracle::new(&net, d.source, d.sink, d.demand, SolverKind::Dinic);
        let fallible: Vec<usize> = (0..4).collect();
        let weights: Vec<(f64, f64)> = net
            .edges()
            .iter()
            .map(|e| (1.0 - e.fail_prob, e.fail_prob))
            .collect();
        let geom = SweepGeometry {
            fallible: &fallible,
            pinned: 0,
            edge_count: 4,
        };
        let cfg = SweepConfig::serial();
        let (exact, _) = sweep_sum::<f64, CompensatedAcc, _>(&oracle, &geom, &weights, &cfg);
        for cut in 1..16u64 {
            let budget = Budget {
                max_configs: Some(cut),
                ..Default::default()
            };
            let sentinel = budget.start();
            let (p, _) = sweep_sum_budgeted::<f64, CompensatedAcc, _>(
                &oracle, &geom, &weights, &cfg, &sentinel, None,
            );
            let r_low = p.feasible.state().0 + p.feasible.state().1;
            let explored = p.explored.state().0 + p.explored.state().1;
            let r_high = (r_low + (1.0 - explored).max(0.0)).min(1.0);
            assert!(
                r_low <= exact + 1e-12 && exact <= r_high + 1e-12,
                "cut={cut}: [{r_low}, {r_high}] must bracket {exact}"
            );
        }
    }
}
