//! The shared configuration-sweep engine.
//!
//! Every exponential enumeration in the crate — the naive `2^|E|` baseline
//! (Fig. 1), its exact and mixed-radix variants, the per-side realization
//! spectrum, and the paper-faithful realization table of Section III-C —
//! visits a space of failure configurations and asks a max-flow oracle one
//! monotone feasibility question per configuration. This module writes that
//! loop once, as one driver (`drive`) generic over two things:
//!
//! - a **walk** (`Walk`), the order in which configuration indices
//!   `0..total` are visited and what each one weighs:
//!   - `GrayWalk`, reflected binary Gray code over the fallible links of a
//!     naive sweep, with perfect links pinned alive;
//!   - `MixedWalk`, the mixed-radix reflected Gray code of a multi-state
//!     naive sweep (one tranche arc flips per step);
//!   - `CountWalk`, plain counting over a side's own links, or over every
//!     link of a factoring run, in a fixed link order (`nearest_first`:
//!     nearest the terminals on the highest bit once there are more than six
//!     links), the order side and factoring checkpoints index;
//! - a **visitor** (`Visitor`), what is accumulated per configuration:
//!   - `Sums`, the feasible and explored probability sums;
//!   - `Masses`, the spectrum mass per realization mask;
//!   - `Masks`, the table's realization mask per configuration.
//!
//! A **lane** is one oracle question per configuration. The demand oracle
//! has the one lane `0`; a side oracle has one lane per live assignment, and
//! [`SweepOracle::set_lane`] switches between them. The driver classifies
//! each batch of at most `BATCH` configurations one lane at a time, so a
//! single lane sees the same mask sequence whatever the lane count, then
//! hands the visitor the batch's realized lane masks in ascending index
//! order. Only the driver handles resume ranges, budget grants (one unit
//! per lane check), batch slicing, subcube closure, the per-lane
//! certificate caches, warm-flow invalidation, the rayon fan-out and the
//! merge.
//!
//! Four exact optimizations ride on `drive`:
//!
//! 1. **Certificate caching** ([`maxflow::certcache`]): each solver verdict is
//!    generalized into a monotonicity certificate (flow support / saturated
//!    cut), and later configurations are first tested against a bounded
//!    per-lane cache of certificates — a few word operations instead of a
//!    max-flow. The cache tries the two front certificates (the last hit of
//!    each kind), last-hit kind first, before the rest of either list.
//!    `GrayWalk` and `CountWalk` also describe their aligned 64-index blocks
//!    (`Walk::block`): over a block the six low links run through a fixed
//!    order — plain counting, or `gray6(q) ^ (parity << 5)` for the Gray
//!    code — while the other links stay put. For each lane, `drive` then
//!    answers a whole run of consecutive configurations that the front
//!    certificates decide with one 64-bit coverage mask per front and block
//!    ([`maxflow::CertCache::run`]), and falls back to the lists' tails or
//!    the solver where the run ends; `MixedWalk` keeps one `classify` per
//!    configuration.
//! 2. **Split-product weights**: a configuration's probability is a low
//!    factor, tabulated once, times a high factor shared by a whole block of
//!    consecutive indices. Batches never straddle a block, so each block's
//!    high product is computed once: one multiplication per configuration,
//!    division-free, so the same code is exact for
//!    [`exactmath::BigRational`] weights. The Gray walks change one link per
//!    step, which keeps masks O(1) and lets warm-start flow repair work.
//! 3. **Chunked parallelism**: the index space is split into contiguous
//!    pieces; each rayon worker owns a *clone* of the oracle, its own caches,
//!    and a forked visitor, merged in piece order at the end.
//!
//! 4. **Subcube closure** (walks with [`Walk::cube_weights`], the
//!    `CountWalk` of side spectra and of factoring): every aligned block of
//!    `2^j` indices is a subcube whose free links are the low `j` index
//!    bits. Feasibility is monotone in the alive set, so a lane feasible
//!    with every free link down (the block's bottom) or infeasible with
//!    every free link up (its top) is constant on the block: factoring's two
//!    bounds per conditioning subtree. `drive` takes each range as maximal
//!    aligned blocks. A block of more than [`LEAF`] configurations tests each
//!    undecided lane at the extremes it does not share with its parent (both,
//!    for a piece of a range; one new configuration per lane for a half),
//!    drops the lanes they decide, and closes once none is left: the visitor
//!    gets the block's mass — the product of its fixed links' weights, in
//!    ascending bit order — in one step. Otherwise the block splits in two.
//!    Leaf blocks test no extremes and run the per-configuration loop above
//!    for the lanes still undecided. A walk of at most six links is one leaf
//!    with every lane undecided: exactly the walk without closure. Closure
//!    decides from exact verdicts only, so the blocks a sweep closes, and
//!    with them every mass, do not depend on the cache or the warm flow.
//!
//! All of these are behavior-preserving: certificates answer exactly what the
//! solver would, the weight factorization is algebraically identical, and
//! the parallel merge only regroups additions (bit-identical for exact
//! weights, within rounding for `f64`). Runs change no state either: solver
//! certificates never contradict each other (a support `S` and a cut
//! `(C, N)` have `cap(S ∩ C) ≥ N`), so a position is covered by at most one
//! front, and every position of a run is a slot-0 hit that `classify` would
//! answer without swapping, recording or solving. The run leaves each cache
//! with the lists and kind flag the per-configuration calls leave, touches
//! no warm flow, and adds the same counters; resume refuses checkpoint
//! certificates that contradict each other.
//!
//! ## Anytime operation
//!
//! `drive` polls a [`BudgetSentinel`] before every batch and every block
//! test. The budget counts lane checks: one unit per configuration and
//! undecided lane in a batch, and one per extreme test; a closed block
//! debits the tests it cost, not the configurations it covers, so
//! [`SweepStats::configs`] counts exactly what the budget was charged. When
//! the budget runs out the sweep stops at a clean cursor and returns a
//! `PartialSweep` whose `remaining` ranges describe exactly which indices
//! were never examined: the rest of the current block and the blocks after
//! it. Passing it back in continues the walk. A resumed range is taken as
//! the maximal aligned blocks of what remains, which are blocks of the
//! uninterrupted walk (or parts of one leaf), so it re-tests the extremes
//! above its cursor but closes and visits the same blocks in the same order;
//! a worker that was granted anything runs until it has examined one
//! configuration, so a resume always makes progress. For the *serial*
//! engine every accumulation is therefore replayed in the identical order,
//! and an interrupted-and-resumed run reproduces the uninterrupted result
//! **bit for bit**. Unbudgeted callers run the same `drive` under
//! [`BudgetSentinel::unlimited`], so there is exactly one enumeration code
//! path.

use exactmath::NeumaierSum;
use maxflow::{Block, BlockOrder, CertCache, RepairStats, SolveCert, CERTIFICATE_CACHE_SIZE};
use netgraph::{EdgeMask, Network, NodeId, StateExpansion};
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

/// Free links of a leaf block of a walk with subcubes: a block of `2^this`
/// indices tests no extremes of its own, and its undecided lanes answer
/// every configuration (as [`maxflow::CertCache::run`] does over a
/// [`Block`]). A side sweep over at most this many links is one leaf.
pub(crate) const LEAF_LINKS: usize = 6;

/// Indices of a leaf block.
const LEAF: u64 = 1 << LEAF_LINKS;

/// Configurations examined between budget polls: large enough that the poll
/// (an atomic add) is noise next to a max-flow call, small enough that a
/// deadline or cancellation is honored promptly. Multi-lane sweeps also
/// switch lanes once per batch, so a larger batch means fewer warm-flow
/// invalidations for the incremental oracle.
const BATCH: u64 = 256;

/// Counters describing one configuration sweep; merged across workers and
/// across the two sides of a bottleneck decomposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Checks made: configuration × assignment (lane) pairs answered, by
    /// the cache or the solver. A side sweep that closes a subcube counts
    /// the extreme tests that closed it, not the configurations it covers;
    /// the budget is charged the same count.
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

    /// Fraction of checks answered from the cache.
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

/// Worker threads a parallel sweep splits its configurations over: rayon's
/// count, a positive `RAYON_NUM_THREADS` or else the available parallelism.
pub fn sweep_threads() -> usize {
    rayon::current_num_threads()
}

/// How the engine should run one sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Split the index space across rayon workers.
    pub parallel: bool,
    /// Consult/record monotonicity certificates before invoking the solver,
    /// in caches of [`CERTIFICATE_CACHE_SIZE`] per kind, per worker and per
    /// lane.
    pub certificates: bool,
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
            incremental: false,
            parallel_threshold: 0,
        }
    }

    /// Derives the sweep configuration from the calculation options.
    pub fn from_opts(opts: &CalcOptions) -> Self {
        SweepConfig {
            parallel: opts.parallel,
            certificates: opts.certificate_cache,
            incremental: opts.incremental,
            parallel_threshold: opts.parallel_threshold,
        }
    }

    /// Whether a sweep of `m` enumerated bits totalling `work` solver
    /// questions should fan out across rayon workers.
    fn fan_out(&self, m: usize, work: u64) -> bool {
        self.parallel && m >= PARALLEL_MIN_BITS && work >= self.parallel_threshold
    }
}

/// A feasibility oracle the engine can drive: one monotone verdict per
/// configuration and lane, with optional certificate extraction.
pub trait SweepOracle {
    /// Tests one configuration on the current lane; extracts a certificate
    /// when `want_cert`.
    fn test_config(&mut self, mask: EdgeMask, want_cert: bool) -> (bool, SolveCert);

    /// Per-link capacities in the mask's bit order, used by cut certificates
    /// to bound the flow a configuration can carry across a witnessed cut.
    fn edge_capacities(&self) -> &[u64];

    /// Selects the lane later verdicts answer for.
    fn set_lane(&mut self, lane: usize);

    /// Switches warm-start incremental flow repair on or off.
    fn set_incremental(&mut self, on: bool);

    /// Drops any warm flow so the next verdict re-solves from scratch. The
    /// engine calls this at every range boundary — worker start, chunk
    /// switch, and resume-from-checkpoint.
    fn invalidate_warm(&mut self);

    /// Takes the incremental-repair counters accumulated since the last call.
    fn take_repair_stats(&mut self) -> RepairStats;
}

impl SweepOracle for DemandOracle {
    fn test_config(&mut self, mask: EdgeMask, want_cert: bool) -> (bool, SolveCert) {
        self.admits_with_cert(mask, want_cert)
    }

    fn edge_capacities(&self) -> &[u64] {
        DemandOracle::edge_capacities(self)
    }

    /// The demand oracle asks one question: its only lane is `0`.
    fn set_lane(&mut self, _lane: usize) {}

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

    /// A side's lanes are its assignment indices.
    fn set_lane(&mut self, lane: usize) {
        self.set_assignment(lane);
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

/// Answers configurations `at..at + len` on the oracle's current lane, the
/// first of which has edge bits `bits`: a run from the certificate cache
/// when the walk has blocks, one cached verdict otherwise, and else one
/// solve whose certificate is recorded. Returns how many configurations it
/// answered and which of them are feasible (bit `j` for index `at + j`).
/// Runs once per run or configuration and lane; with a plain `#[inline]`,
/// a 45-link flat cut's side sweeps took about 14% more CPU time (measured
/// on a 2-core x86-64 host).
#[inline(always)]
fn answer<W, K: Walk<W>, O: SweepOracle>(
    oracle: &mut O,
    cache: &mut Option<CertCache>,
    walk: &K,
    at: u64,
    bits: u64,
    len: usize,
    stats: &mut SweepStats,
) -> (usize, u64) {
    let hit = cache.as_mut().and_then(|cache| match walk.block(at, bits) {
        Some(block) => {
            let q = (at % 64) as u32;
            debug_assert_eq!(block.config(q), bits);
            cache.run(&block, q, len.min(64 - q as usize) as u32, bits)
        }
        None => cache.classify(bits).map(|v| (1, u64::from(v))),
    });
    if let Some((k, feasible)) = hit {
        let found = u64::from(feasible.count_ones());
        stats.configs += u64::from(k);
        stats.feasible_hits += found;
        stats.infeasible_hits += u64::from(k) - found;
        return (k as usize, feasible);
    }
    (
        1,
        u64::from(solve(oracle, cache, bits, walk.edge_count(), stats)),
    )
}

/// One configuration's verdict on the oracle's current lane: cached when a
/// certificate decides it, else solved.
fn check<O: SweepOracle>(
    oracle: &mut O,
    cache: &mut Option<CertCache>,
    bits: u64,
    edges: usize,
    stats: &mut SweepStats,
) -> bool {
    if let Some(v) = cache.as_mut().and_then(|cache| cache.classify(bits)) {
        stats.configs += 1;
        if v {
            stats.feasible_hits += 1;
        } else {
            stats.infeasible_hits += 1;
        }
        return v;
    }
    solve(oracle, cache, bits, edges, stats)
}

/// One solver verdict, whose certificate goes into the cache.
fn solve<O: SweepOracle>(
    oracle: &mut O,
    cache: &mut Option<CertCache>,
    bits: u64,
    edges: usize,
    stats: &mut SweepStats,
) -> bool {
    stats.configs += 1;
    stats.solver_calls += 1;
    let mask = EdgeMask::from_bits(bits, edges);
    match cache {
        Some(cache) => {
            let (ok, cert) = oracle.test_config(mask, true);
            cache.record(cert);
            ok
        }
        None => oracle.test_config(mask, false).0,
    }
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
    let total = ranges_len(ranges);
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

/// Cuts `lo..hi` the way a walk with subcubes takes it: the part of an
/// aligned [`LEAF`]-index block that the range covers only in part is one
/// leaf piece, and the rest are maximal aligned blocks of at most `cap`
/// indices (a power of two, at least [`LEAF`]).
fn cube_pieces(lo: u64, hi: u64, cap: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut c = lo;
    while c < hi {
        let end = if c & (LEAF - 1) != 0 || hi - c < LEAF {
            hi.min((c | (LEAF - 1)) + 1)
        } else {
            let align = match c & c.wrapping_neg() {
                0 => u64::MAX,
                low => low,
            };
            let fits = 1 << (63 - (hi - c).leading_zeros());
            c + align.min(fits).min(cap)
        };
        out.push((c, end));
        c = end;
    }
    out
}

/// Partial-sum strategy of a sweep: compensated for `f64`, plain ring
/// addition for exact weights.
pub(crate) trait SweepAccumulator<W>: Send + Sync {
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
pub(crate) struct CompensatedAcc(NeumaierSum);

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
pub(crate) struct PlainAcc<W>(W);

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

/// An order over a sweep's configuration indices `0..total`: where each
/// configuration sits in the oracle's edge mask, and what it weighs.
///
/// A weight factors as `low()[low index] · high`, where the high factor is
/// shared by every index of one block (see [`Walk::block_end`]); the driver
/// computes it once per block.
pub(crate) trait Walk<W>: Sync {
    /// The cursor at one index.
    type Pos;
    /// Enumerated links or digits: the exponent the fan-out rule reads.
    fn width(&self) -> usize;
    /// Number of configurations.
    fn total(&self) -> u64;
    /// Width of the oracle's edge mask.
    fn edge_count(&self) -> usize;
    /// Masks of the best and the worst configuration. Their certificates are
    /// the two most general a sweep can hold, so they seed every parallel
    /// worker's caches.
    fn extremes(&self) -> [u64; 2];
    /// First index past the weight block holding index `c`.
    fn block_end(&self, c: u64) -> u64;
    /// The cursor at index `c`: worker ranges and resumes start mid-walk.
    fn seek(&self, c: u64) -> Self::Pos;
    /// Advances the cursor to index `next`, which must be in range.
    fn step(&self, pos: &mut Self::Pos, next: u64);
    /// The configuration's edge mask bits and low-factor index.
    fn config(&self, pos: &Self::Pos) -> (u64, usize);
    /// The high factor of the block holding the cursor.
    fn high(&self, pos: &Self::Pos) -> W;
    /// The low factors.
    fn low(&self) -> &[W];
    /// The aligned 64-configuration block holding index `c`, whose
    /// configuration is `bits`, when the walk has such blocks.
    fn block(&self, c: u64, bits: u64) -> Option<Block>;
    /// The `(alive, failed)` weights of the index bits, when every aligned
    /// block of `2^j` indices is a subcube whose free links are the low `j`
    /// index bits; [`drive`] then closes the blocks their extremes decide.
    fn cube_weights(&self) -> Option<&[(W, W)]> {
        None
    }
}

/// Split-product weight table over binary enumeration bits:
/// `weight(g) = low[g & low_mask] · high(g >> low_bits)`, where `low` is
/// precomputed once (two multiplications per entry) and the high product
/// changes only once per `2^low_bits` block. Division-free, so exact for any
/// [`Weight`].
struct WeightTable<W> {
    /// `(alive, failed)` pair of each enumeration bit.
    weights: Vec<(W, W)>,
    low: Vec<W>,
    low_bits: usize,
    low_mask: u64,
}

impl<W: Weight> WeightTable<W> {
    fn new(weights: Vec<(W, W)>) -> Self {
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
        WeightTable {
            weights,
            low,
            low_bits: b,
            low_mask: (1u64 << b) - 1,
        }
    }

    /// Product over the bits of `g` at positions `low_bits..`.
    fn high(&self, g: u64) -> W {
        fixed_mass(&self.weights, g, self.low_bits)
    }

    /// One past the last index of `c`'s `2^low_bits`-aligned block. The high
    /// bits of a Gray code `c ^ (c >> 1)` are constant over such a block
    /// too.
    fn block_end(&self, c: u64) -> u64 {
        (c | self.low_mask) + 1
    }

    /// Number of enumeration bits.
    fn width(&self) -> usize {
        self.weights.len()
    }
}

/// The product, in ascending bit order, of the weights the bits `from..` of
/// `g` select: the high factor of a configuration's weight, and the mass of
/// the subcube of the `2^from` indices that share those bits.
fn fixed_mass<W: Weight>(weights: &[(W, W)], g: u64, from: usize) -> W {
    let mut p = W::one();
    for (i, w) in weights.iter().enumerate().skip(from) {
        p = p.mul(if g >> i & 1 == 1 { &w.0 } else { &w.1 });
    }
    p
}

/// Reflected binary Gray code over the fallible links of a naive sweep:
/// compact bit `j` is network edge `fallible[j]`, and the `pinned` edges
/// are alive in every mask. Successive codes differ in one link.
pub(crate) struct GrayWalk<'a, W> {
    fallible: &'a [usize],
    pinned: u64,
    edge_count: usize,
    table: WeightTable<W>,
    /// The edges of compact bits `0..6`, when there are six.
    low: Option<[u8; 6]>,
}

impl<'a, W: Weight> GrayWalk<'a, W> {
    /// `weights[j]` is the `(alive, failed)` pair of compact bit `j`;
    /// `edge_count` is the network's full mask width.
    pub(crate) fn new(
        fallible: &'a [usize],
        pinned: u64,
        edge_count: usize,
        weights: &'a [(W, W)],
    ) -> Self {
        assert_eq!(weights.len(), fallible.len(), "one weight pair per link");
        let low = fallible
            .get(..6)
            .map(|f| std::array::from_fn(|j| f[j] as u8));
        GrayWalk {
            fallible,
            pinned,
            edge_count,
            table: WeightTable::new(weights.to_vec()),
            low,
        }
    }
}

/// A [`GrayWalk`] cursor: the Gray code of the index, and the edge mask it
/// scatters to.
pub(crate) struct GrayPos {
    g: u64,
    bits: u64,
}

impl<W: Weight> Walk<W> for GrayWalk<'_, W> {
    type Pos = GrayPos;

    fn width(&self) -> usize {
        self.table.width()
    }

    fn total(&self) -> u64 {
        1 << self.table.width()
    }

    fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn extremes(&self) -> [u64; 2] {
        let alive = self.fallible.iter().fold(self.pinned, |b, &i| b | 1 << i);
        [alive, self.pinned]
    }

    fn block_end(&self, c: u64) -> u64 {
        self.table.block_end(c)
    }

    fn seek(&self, c: u64) -> GrayPos {
        let g = c ^ (c >> 1);
        let mut bits = self.pinned;
        let mut rest = g;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            bits |= 1 << self.fallible[j];
        }
        GrayPos { g, bits }
    }

    #[inline]
    fn step(&self, pos: &mut GrayPos, next: u64) {
        // successive Gray codes differ in exactly bit tz(next)
        let flip = next.trailing_zeros() as usize;
        pos.g ^= 1 << flip;
        pos.bits ^= 1 << self.fallible[flip];
    }

    #[inline]
    fn config(&self, pos: &GrayPos) -> (u64, usize) {
        (pos.bits, (pos.g & self.table.low_mask) as usize)
    }

    fn high(&self, pos: &GrayPos) -> W {
        self.table.high(pos.g)
    }

    fn low(&self) -> &[W] {
        &self.table.low
    }

    /// Over an aligned block of 64 indices the Gray code's high bits stay
    /// put and its low six run through `gray6(q) ^ (parity << 5)`, `parity`
    /// being bit 6 of the index.
    #[inline]
    fn block(&self, c: u64, bits: u64) -> Option<Block> {
        let order = BlockOrder::Gray {
            parity: c >> 6 & 1 == 1,
        };
        Some(Block::new(c >> 6, bits, self.low?, order))
    }
}

/// Plain counting over a side's own links in a fixed link order: bit `j` of
/// index `c` is the state of link `order[j]`. Side checkpoints record their
/// ranges in this order. Every aligned block of `2^j` indices is a subcube:
/// the links of the low `j` bits are free and the others stay put, which is
/// what lets [`drive`] close whole blocks.
pub(crate) struct CountWalk<W> {
    /// `order[j]`: the link of index bit `j`.
    order: Vec<usize>,
    /// Weights by index bit.
    table: WeightTable<W>,
    /// Edge bits of each value of the six low index bits.
    low_bits: [u64; 64],
    /// The links of index bits `0..6`, when there are six.
    low: Option<[u8; 6]>,
}

impl<W: Weight> CountWalk<W> {
    /// `weights[i]` is the `(alive, failed)` pair of side link `i`, and
    /// `order` a permutation of the links: index bit `j` is link `order[j]`.
    pub(crate) fn new(weights: &[(W, W)], order: Vec<usize>) -> Self {
        assert_eq!(weights.len(), order.len(), "one weight pair per link");
        let table = WeightTable::new(order.iter().map(|&e| weights[e].clone()).collect());
        let six = (1u64 << order.len().min(6)) - 1;
        let low_bits = std::array::from_fn(|q| scatter(&order, q as u64 & six));
        let low = order.get(..6).map(|f| std::array::from_fn(|j| f[j] as u8));
        CountWalk {
            order,
            table,
            low_bits,
            low,
        }
    }
}

/// The link of each index bit of a [`CountWalk`] over `net`'s links that
/// walks them nearest the `starts` first: a link is as many BFS hops from
/// the start nodes as its nearer end (over links either way), ties go by
/// link index, and the nearest link takes the highest bit. The walk's
/// aligned blocks then fix the near links and leave the far ones free, and
/// a block splits on its nearest free link first. A walk of at most
/// [`LEAF_LINKS`] links is one leaf block and keeps index = configuration.
pub(crate) fn nearest_first(net: &Network, starts: impl IntoIterator<Item = NodeId>) -> Vec<usize> {
    let edges = net.edges();
    if edges.len() <= LEAF_LINKS {
        return (0..edges.len()).collect();
    }
    let mut adj = vec![Vec::new(); net.node_count()];
    for e in edges {
        adj[e.src.index()].push(e.dst.index());
        adj[e.dst.index()].push(e.src.index());
    }
    let mut hops = vec![usize::MAX; adj.len()];
    let mut queue = std::collections::VecDeque::new();
    for n in starts {
        if hops[n.index()] != 0 {
            hops[n.index()] = 0;
            queue.push_back(n.index());
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if hops[v] == usize::MAX {
                hops[v] = hops[u] + 1;
                queue.push_back(v);
            }
        }
    }
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| {
        (
            hops[edges[i].src.index()].min(hops[edges[i].dst.index()]),
            i,
        )
    });
    order.reverse();
    order
}

/// The edge bits of index `c` when index bit `j` is link `order[j]`.
fn scatter(order: &[usize], c: u64) -> u64 {
    let mut bits = 0;
    let mut rest = c;
    while rest != 0 {
        bits |= 1 << order[rest.trailing_zeros() as usize];
        rest &= rest - 1;
    }
    bits
}

/// A [`CountWalk`] cursor: the index, and the edge bits of its index bits
/// `6..`.
pub(crate) struct CountPos {
    c: u64,
    high: u64,
}

impl<W: Weight> Walk<W> for CountWalk<W> {
    type Pos = CountPos;

    fn width(&self) -> usize {
        self.table.width()
    }

    fn total(&self) -> u64 {
        1 << self.table.width()
    }

    fn edge_count(&self) -> usize {
        self.table.width()
    }

    fn extremes(&self) -> [u64; 2] {
        [EdgeMask::all_alive(self.table.width()).bits(), 0]
    }

    fn block_end(&self, c: u64) -> u64 {
        self.table.block_end(c)
    }

    fn seek(&self, c: u64) -> CountPos {
        CountPos {
            c,
            high: scatter(&self.order, c & !63),
        }
    }

    #[inline]
    fn step(&self, pos: &mut CountPos, next: u64) {
        if next >> 6 != pos.c >> 6 {
            pos.high = scatter(&self.order, next & !63);
        }
        pos.c = next;
    }

    #[inline]
    fn config(&self, pos: &CountPos) -> (u64, usize) {
        (
            pos.high | self.low_bits[(pos.c & 63) as usize],
            (pos.c & self.table.low_mask) as usize,
        )
    }

    fn high(&self, pos: &CountPos) -> W {
        self.table.high(pos.c)
    }

    fn low(&self) -> &[W] {
        &self.table.low
    }

    #[inline]
    fn block(&self, c: u64, bits: u64) -> Option<Block> {
        Some(Block::new(c >> 6, bits, self.low?, BlockOrder::Counting))
    }

    fn cube_weights(&self) -> Option<&[(W, W)]> {
        Some(&self.table.weights)
    }
}

/// Geometry of a mixed-radix sweep over a tranche-expanded network (see
/// [`netgraph::spectrum`]): configuration `c ∈ [0, Π radices)` decodes into
/// one state digit per fallible link, and digit `j` holding value `v` means
/// tranche arcs `1..=v` of that link are alive in the expanded edge mask.
///
/// Binary networks never build one of these — they keep the plain
/// [`GrayWalk`] bitmask path — so an all-binary instance takes exactly the
/// same code bit for bit whether or not this type exists.
pub(crate) struct MixedGeometry {
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
    pub(crate) fn from_expansion(x: &StateExpansion) -> Option<MixedGeometry> {
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
    fn digits(&self) -> usize {
        self.radices.len()
    }

    /// Total number of configurations `Π radices`.
    fn total(&self) -> u64 {
        *self.place.last().unwrap_or(&1)
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
    /// Bit `j` holds the parity of `c / place[j + 1]`, the plain value of
    /// the digits above `j`: set when digit `j` sweeps descending.
    odd: u64,
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
        let mut odd = 0u64;
        for j in 0..d {
            let r = geom.radices[j];
            a[j] = ((lo / geom.place[j]) % r as u64) as u32;
            let above = lo / geom.place[j + 1];
            odd |= (above & 1) << j;
            g[j] = if above & 1 == 0 { a[j] } else { r - 1 - a[j] };
            gval += g[j] as u64 * geom.place[j];
            bits |= geom.value_bits[j][g[j] as usize];
        }
        MixedWalker {
            a,
            g,
            gval,
            bits,
            odd,
        }
    }

    /// Advances from index `c` to `c + 1`; returns the digit that stepped.
    /// `c + 1` must be in range (the caller owns the bounds check).
    fn step(&mut self, geom: &MixedGeometry) -> usize {
        let mut t = 0usize;
        while self.a[t] == geom.radices[t] - 1 {
            self.a[t] = 0;
            t += 1;
        }
        self.a[t] += 1;
        // the carry into digit t bumps the value above every digit below it
        self.odd ^= (1 << t) - 1;
        if self.odd >> t & 1 == 0 {
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

/// The mixed-radix reflected Gray walk of a multi-state naive sweep.
pub(crate) struct MixedWalk<'a, W> {
    geom: &'a MixedGeometry,
    weights: &'a [Vec<W>],
    table: MixedWeightTable<W>,
}

impl<'a, W: Weight> MixedWalk<'a, W> {
    /// `weights[j][v]` is the probability of digit `j` holding state `v`.
    pub(crate) fn new(geom: &'a MixedGeometry, weights: &'a [Vec<W>]) -> Self {
        assert_eq!(weights.len(), geom.digits(), "one weight vector per digit");
        MixedWalk {
            geom,
            weights,
            table: MixedWeightTable::new(weights, &geom.radices),
        }
    }
}

/// A [`MixedWalk`] cursor: the walker, plus the part of its Gray value
/// held by the digits at positions `low_digits..` — a multiple of
/// `low_size` that changes only when one of those digits steps, so the low
/// factor's index is a subtraction, not a division.
pub(crate) struct MixedPos {
    walker: MixedWalker,
    high_gval: u64,
}

impl<W: Weight> MixedWalk<'_, W> {
    fn high_gval(&self, w: &MixedWalker) -> u64 {
        w.gval - w.gval % self.table.low_size
    }
}

impl<W: Weight> Walk<W> for MixedWalk<'_, W> {
    type Pos = MixedPos;

    fn width(&self) -> usize {
        self.geom.digits()
    }

    fn total(&self) -> u64 {
        self.geom.total()
    }

    fn edge_count(&self) -> usize {
        self.geom.edge_count
    }

    fn extremes(&self) -> [u64; 2] {
        let g = self.geom;
        let best = g
            .value_bits
            .iter()
            .zip(&g.radices)
            .fold(g.pinned, |b, (vb, &r)| b | vb[r as usize - 1]);
        [best, g.pinned]
    }

    /// Blocks are the runs of `low_size` indices over which the digits at
    /// positions `low_digits..` stay put.
    fn block_end(&self, c: u64) -> u64 {
        (c / self.table.low_size + 1) * self.table.low_size
    }

    fn seek(&self, c: u64) -> MixedPos {
        let walker = MixedWalker::at(self.geom, c);
        let high_gval = self.high_gval(&walker);
        MixedPos { walker, high_gval }
    }

    #[inline]
    fn step(&self, pos: &mut MixedPos, _next: u64) {
        if pos.walker.step(self.geom) >= self.table.low_digits {
            pos.high_gval = self.high_gval(&pos.walker);
        }
    }

    #[inline]
    fn config(&self, pos: &MixedPos) -> (u64, usize) {
        (pos.walker.bits, (pos.walker.gval - pos.high_gval) as usize)
    }

    fn high(&self, pos: &MixedPos) -> W {
        let mut p = W::one();
        for (w, &v) in self
            .weights
            .iter()
            .zip(&pos.walker.g)
            .skip(self.table.low_digits)
        {
            p = p.mul(&w[v as usize]);
        }
        p
    }

    fn low(&self) -> &[W] {
        &self.table.low
    }

    /// A mixed-radix walk keeps to the per-configuration path.
    fn block(&self, _c: u64, _bits: u64) -> Option<Block> {
        None
    }
}

/// One batch of consecutive configurations, as a visitor sees it after
/// every lane has classified it.
pub(crate) struct Batch<'a, W> {
    /// Index of the batch's first configuration.
    c0: u64,
    /// Per configuration, bit `j` set iff lane `j` found it feasible.
    realized: &'a [u32],
    low_index: &'a [usize],
    low: &'a [W],
    high: &'a W,
    /// The sweep runs under a real budget, so the explored mass matters.
    track: bool,
}

impl<W: Weight> Batch<'_, W> {
    /// Probability weight of the batch's `i`-th configuration.
    #[inline]
    fn weight(&self, i: usize) -> W {
        self.low[self.low_index[i]].mul(self.high)
    }
}

/// What a sweep accumulates per configuration.
pub(crate) trait Visitor<W>: Send + Sync + Sized {
    /// An empty accumulation for a parallel worker's range `lo..hi`.
    fn fork(&self, lo: u64, hi: u64) -> Self;
    /// Folds in one batch, in ascending index order.
    fn visit(&mut self, batch: &Batch<'_, W>);
    /// Folds in the closed block of indices `lo..hi`, every configuration of
    /// which realizes `realized`, with their total weight `mass`; `track` as
    /// in [`Batch`].
    fn close(&mut self, lo: u64, hi: u64, realized: u32, mass: W, track: bool);
    /// Folds in a worker's accumulation; workers merge in range order.
    fn merge(&mut self, other: Self);
}

/// The naive sweeps' feasible and explored probability sums. `explored` is
/// only tracked under a real budget: only a partial result needs it.
pub(crate) struct Sums<A> {
    pub(crate) feasible: A,
    pub(crate) explored: A,
}

impl<A> Sums<A> {
    pub(crate) fn empty<W>() -> Self
    where
        A: SweepAccumulator<W>,
    {
        Sums {
            feasible: A::empty(),
            explored: A::empty(),
        }
    }
}

impl<W: Weight, A: SweepAccumulator<W>> Visitor<W> for Sums<A> {
    fn fork(&self, _lo: u64, _hi: u64) -> Self {
        Sums::empty()
    }

    #[inline]
    fn visit(&mut self, b: &Batch<'_, W>) {
        for (i, &r) in b.realized.iter().enumerate() {
            if b.track {
                let w = b.weight(i);
                if r != 0 {
                    self.feasible.add(w.clone());
                }
                self.explored.add(w);
            } else if r != 0 {
                self.feasible.add(b.weight(i));
            }
        }
    }

    fn close(&mut self, _lo: u64, _hi: u64, realized: u32, mass: W, track: bool) {
        if track {
            self.explored.add(mass.clone());
        }
        if realized != 0 {
            self.feasible.add(mass);
        }
    }

    fn merge(&mut self, other: Self) {
        self.feasible.merge(other.feasible);
        self.explored.merge(other.explored);
    }
}

/// A side's realization spectrum: entry `r` is the mass of the
/// configurations whose realized lane mask is exactly `r`.
pub(crate) struct Masses<W>(pub(crate) Vec<W>);

impl<W: Weight> Visitor<W> for Masses<W> {
    fn fork(&self, _lo: u64, _hi: u64) -> Self {
        Masses(vec![W::zero(); self.0.len()])
    }

    #[inline]
    fn visit(&mut self, b: &Batch<'_, W>) {
        for (i, &r) in b.realized.iter().enumerate() {
            let slot = &mut self.0[r as usize];
            *slot = slot.add(&b.weight(i));
        }
    }

    fn close(&mut self, _lo: u64, _hi: u64, realized: u32, mass: W, _track: bool) {
        let slot = &mut self.0[realized as usize];
        *slot = slot.add(&mass);
    }

    fn merge(&mut self, other: Self) {
        for (x, y) in self.0.iter_mut().zip(&other.0) {
            *x = x.add(y);
        }
    }
}

/// The paper's realization table over the indices `base..`: entry `i` is
/// the realized lane mask of configuration `base + i`.
pub(crate) struct Masks {
    base: u64,
    pub(crate) masks: Vec<u32>,
}

impl Masks {
    /// An all-zero table over the indices `lo..hi`.
    pub(crate) fn new(lo: u64, hi: u64) -> Self {
        Masks {
            base: lo,
            masks: vec![0; (hi - lo) as usize],
        }
    }
}

impl<W> Visitor<W> for Masks {
    fn fork(&self, lo: u64, hi: u64) -> Self {
        Masks::new(lo, hi)
    }

    fn visit(&mut self, b: &Batch<'_, W>) {
        let at = (b.c0 - self.base) as usize;
        self.masks[at..at + b.realized.len()].copy_from_slice(b.realized);
    }

    fn close(&mut self, lo: u64, hi: u64, realized: u32, _mass: W, _track: bool) {
        let at = (lo - self.base) as usize;
        self.masks[at..at + (hi - lo) as usize].fill(realized);
    }

    fn merge(&mut self, other: Self) {
        let at = (other.base - self.base) as usize;
        self.masks[at..at + other.masks.len()].copy_from_slice(&other.masks);
    }
}

/// Certificates a sweep exports per lane at most; a checkpoint lane that
/// carries more was not written by a run.
pub(crate) const LANE_CERTS: usize = 4 * CERTIFICATE_CACHE_SIZE;

/// The state of a possibly interrupted sweep.
///
/// `remaining` empty means the sweep completed. Otherwise the visitor holds
/// what the examined configurations contributed, and `remaining` lists the
/// half-open index ranges never examined — feeding the whole value back to
/// [`drive`] continues exactly there.
pub(crate) struct PartialSweep<V> {
    /// The accumulation over the examined configurations.
    pub(crate) visitor: V,
    /// Half-open `[lo, hi)` index ranges not yet examined, ascending.
    pub(crate) remaining: Vec<(u64, u64)>,
    /// Certificates exported per lane, to warm-start a resumed run
    /// (advisory: an empty list only costs cold-cache solves).
    pub(crate) certs: Vec<Vec<SolveCert>>,
}

impl<V> PartialSweep<V> {
    /// A sweep of `total` configurations that has not started.
    pub(crate) fn fresh(visitor: V, total: u64) -> Self {
        PartialSweep {
            visitor,
            remaining: vec![(0, total)],
            certs: Vec::new(),
        }
    }

    /// Whether every configuration has been examined.
    pub(crate) fn is_complete(&self) -> bool {
        self.remaining.is_empty()
    }
}

/// Runs the sweep `state` describes over `walk` under `sentinel`: every
/// remaining configuration is classified once per lane in `lanes` and
/// handed to the visitor. Returns the new state, complete unless the budget
/// ran out, plus counters. A serial interrupted-and-resumed run reproduces
/// the uninterrupted accumulation bit for bit.
pub(crate) fn drive<W, K, V, O>(
    oracle: &O,
    walk: &K,
    lanes: &[usize],
    cfg: &SweepConfig,
    sentinel: &BudgetSentinel,
    state: PartialSweep<V>,
) -> (PartialSweep<V>, SweepStats)
where
    W: Weight,
    K: Walk<W>,
    V: Visitor<W>,
    O: SweepOracle + Clone + Send + Sync,
{
    debug_assert_eq!(oracle.edge_capacities().len(), walk.edge_count());
    let PartialSweep {
        visitor: mut acc,
        remaining,
        certs: warm,
    } = state;
    let work = coalesce(remaining);
    debug_assert!(work.iter().all(|&(_, hi)| hi <= walk.total()));
    let unit = lanes.len().max(1) as u64;
    if !cfg.fan_out(walk.width(), ranges_len(&work) * unit) {
        let mut worker = Worker::new(oracle, lanes.len(), cfg, &warm);
        let remaining = worker.run(walk, lanes, &work, sentinel, &mut acc);
        let (certs, stats) = worker.finish();
        let state = PartialSweep {
            visitor: acc,
            remaining,
            certs,
        };
        return (state, stats);
    }
    let mut stats = SweepStats::default();
    let mut seeds = vec![Vec::new(); lanes.len()];
    if cfg.certificates {
        let mut probe = oracle.clone();
        for (&lane, seed) in lanes.iter().zip(&mut seeds) {
            probe.set_lane(lane);
            for bits in walk.extremes() {
                stats.solver_calls += 1;
                let mask = EdgeMask::from_bits(bits, walk.edge_count());
                let (_, cert) = probe.test_config(mask, true);
                if cert != SolveCert::None {
                    seed.push(cert);
                }
            }
        }
    }
    for (seed, w) in seeds.iter_mut().zip(&warm) {
        seed.extend(w.iter().copied().take(CERTIFICATE_CACHE_SIZE));
    }
    let parts = sweep_threads() * 8;
    let pieces = match walk.cube_weights() {
        // fan-out pieces of a walk with subcubes are aligned blocks
        Some(_) => {
            let piece = (ranges_len(&work) / parts as u64).max(LEAF);
            let cap = 1 << (63 - piece.leading_zeros());
            work.iter()
                .flat_map(|&(lo, hi)| cube_pieces(lo, hi, cap))
                .collect()
        }
        None => split_ranges(&work, parts),
    };
    let results: Vec<_> = pieces
        .into_par_iter()
        .map(|(lo, hi)| {
            let mut part = acc.fork(lo, hi);
            let mut worker = Worker::new(oracle, lanes.len(), cfg, &seeds);
            let rest = worker.run(walk, lanes, &[(lo, hi)], sentinel, &mut part);
            (part, rest, worker.finish())
        })
        .collect_vec();
    // merge in piece order: deterministic for a fixed piece layout
    let mut remaining = Vec::new();
    let mut certs = vec![Vec::new(); lanes.len()];
    for (part, rest, (exported, st)) in results {
        acc.merge(part);
        remaining.extend(rest);
        for (c, e) in certs.iter_mut().zip(exported) {
            c.extend(e);
        }
        stats.merge(&st);
    }
    for c in &mut certs {
        c.truncate(LANE_CERTS);
    }
    let state = PartialSweep {
        visitor: acc,
        remaining: coalesce(remaining),
        certs,
    };
    (state, stats)
}

/// One worker's oracle clone, per-lane certificate caches, counters, and
/// batch buffers.
struct Worker<O> {
    oracle: O,
    caches: Vec<Option<CertCache>>,
    stats: SweepStats,
    bits: [u64; BATCH as usize],
    low_index: [usize; BATCH as usize],
    realized: [u32; BATCH as usize],
    /// The budget has granted this worker something.
    granted: bool,
    /// This worker has examined a configuration: visited one, or closed a
    /// block.
    moved: bool,
}

/// Which extreme of a block's subcube its parent already tested.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shared {
    /// Neither: the block is a piece of its range, and tests both.
    Neither,
    /// The lower half shares its parent's bottom, where every undecided lane
    /// is infeasible, and tests its top.
    Bottom,
    /// The upper half shares its parent's top, where every undecided lane is
    /// feasible, and tests its bottom.
    Top,
}

impl<O: SweepOracle + Clone> Worker<O> {
    /// Clones the oracle and builds one cache per lane, pre-loaded with that
    /// lane's `certs`.
    fn new(oracle: &O, lanes: usize, cfg: &SweepConfig, certs: &[Vec<SolveCert>]) -> Self {
        let mut oracle = oracle.clone();
        oracle.set_incremental(cfg.incremental);
        let caches = (0..lanes)
            .map(|lane| {
                cfg.certificates.then(|| {
                    let mut cache =
                        CertCache::new(CERTIFICATE_CACHE_SIZE, oracle.edge_capacities());
                    for &c in certs.get(lane).into_iter().flatten() {
                        cache.record(c);
                    }
                    cache
                })
            })
            .collect();
        Worker {
            oracle,
            caches,
            stats: SweepStats::default(),
            bits: [0; BATCH as usize],
            low_index: [0; BATCH as usize],
            realized: [0; BATCH as usize],
            granted: false,
            moved: false,
        }
    }

    /// Asks `sentinel` for up to `want` batches of `unit` checks each and
    /// returns how many the worker may run. A worker that holds a grant but
    /// has examined no configuration yet runs one batch even when refused,
    /// unless the run was interrupted: a resumed block re-tests the
    /// extremes of the blocks above its cursor, and a resume must make
    /// progress however small its allowance. Walks without subcubes examine
    /// a configuration with their first grant, so this never applies to
    /// them.
    fn grant(&mut self, sentinel: &BudgetSentinel, unit: u64, want: u64) -> u64 {
        let n = sentinel.grant(unit, want);
        if n > 0 {
            self.granted = true;
            n
        } else {
            u64::from(self.granted && !self.moved && !sentinel.interrupted())
        }
    }

    /// Walks `ranges` in order; returns the ranges left unexamined when the
    /// budget stopped the walk (empty when it finished).
    fn run<W, K, V>(
        &mut self,
        walk: &K,
        lanes: &[usize],
        ranges: &[(u64, u64)],
        sentinel: &BudgetSentinel,
        visitor: &mut V,
    ) -> Vec<(u64, u64)>
    where
        W: Weight,
        K: Walk<W>,
        V: Visitor<W>,
    {
        let all = ((1u64 << lanes.len()) - 1) as u32;
        for (k, &(lo, hi)) in ranges.iter().enumerate() {
            // warm flows never survive a range boundary (worker start and
            // every resume gap) — the verdict stream stays independent of
            // how the walk was sliced
            self.oracle.invalidate_warm();
            let stop = match walk.cube_weights() {
                // every lane is undecided at the start of a piece
                Some(weights) => cube_pieces(lo, hi, u64::MAX)
                    .into_iter()
                    .find_map(|(a, b)| {
                        let piece = (a, b, Shared::Neither);
                        self.block(walk, weights, lanes, piece, (all, 0), sentinel, visitor)
                    }),
                None => self.range(walk, lanes, (all, 0), lo, hi, sentinel, visitor),
            };
            if let Some(stop) = stop {
                let mut rest = vec![(stop, hi)];
                rest.extend_from_slice(&ranges[k + 1..]);
                return rest;
            }
        }
        Vec::new()
    }

    /// Sweeps the piece `lo..hi` of a walk with subcubes (see
    /// [`cube_pieces`]) for the lanes `open` (bit `p` for lane `lanes[p]`)
    /// that its ancestors left undecided; `fixed` holds the realized bits of
    /// the lanes they decided feasible. A piece of at most [`LEAF`] indices
    /// answers every configuration for the open lanes. A larger one, an
    /// aligned block, tests each open lane at the extremes of its subcube
    /// (every free link down, every free link up) that it does not share
    /// with its parent, one budget unit a test. A lane feasible at the
    /// bottom or infeasible at the top is constant on the block, so it
    /// leaves `open`; once none is left, the block closes with one visit of
    /// its whole mass, and otherwise its halves go on. Returns
    /// `Some(cursor)` when the budget stopped the walk at `cursor`.
    #[allow(clippy::too_many_arguments)]
    fn block<W, K, V>(
        &mut self,
        walk: &K,
        weights: &[(W, W)],
        lanes: &[usize],
        (lo, hi, shared): (u64, u64, Shared),
        (mut open, mut fixed): (u32, u32),
        sentinel: &BudgetSentinel,
        visitor: &mut V,
    ) -> Option<u64>
    where
        W: Weight,
        K: Walk<W>,
        V: Visitor<W>,
    {
        if hi - lo <= LEAF {
            return self.range(walk, lanes, (open, fixed), lo, hi, sentinel, visitor);
        }
        let tests = if shared == Shared::Neither { 2 } else { 1 };
        let checks = u64::from(open.count_ones()) * tests;
        if checks > 0 && self.grant(sentinel, checks, 1) == 0 {
            return Some(lo);
        }
        let bottom = walk.config(&walk.seek(lo)).0;
        let top = walk.config(&walk.seek(hi - 1)).0;
        let edges = walk.edge_count();
        let mut rest = open;
        while rest != 0 {
            let p = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.oracle.set_lane(lanes[p]);
            let (oracle, cache, stats) = (&mut self.oracle, &mut self.caches[p], &mut self.stats);
            let low = shared != Shared::Bottom && check(oracle, cache, bottom, edges, stats);
            let high = shared == Shared::Top || check(oracle, cache, top, edges, stats);
            if low {
                fixed |= 1 << lanes[p];
            }
            if low || !high {
                open &= !(1 << p);
            }
        }
        if open == 0 {
            let free = (hi - lo).trailing_zeros() as usize;
            let track = !sentinel.is_unlimited();
            visitor.close(lo, hi, fixed, fixed_mass(weights, lo, free), track);
            self.moved = true;
            return None;
        }
        let mid = lo + (hi - lo) / 2;
        [(lo, mid, Shared::Bottom), (mid, hi, Shared::Top)]
            .into_iter()
            .find_map(|half| {
                self.block(walk, weights, lanes, half, (open, fixed), sentinel, visitor)
            })
    }

    /// Walks `lo..hi` in batches that never straddle a weight block for the
    /// lanes `open` (bit `p` for lane `lanes[p]`), every configuration also
    /// realizing `fixed`, asking the budget for one unit per open lane and
    /// configuration before each batch. Returns `Some(cursor)` when the
    /// budget stopped the walk with `cursor..hi` unexamined, `None` when
    /// done.
    #[allow(clippy::too_many_arguments)]
    fn range<W, K, V>(
        &mut self,
        walk: &K,
        lanes: &[usize],
        (open, fixed): (u32, u32),
        lo: u64,
        hi: u64,
        sentinel: &BudgetSentinel,
        visitor: &mut V,
    ) -> Option<u64>
    where
        W: Weight,
        K: Walk<W>,
        V: Visitor<W>,
    {
        let unit = u64::from(open.count_ones().max(1));
        let track = !sentinel.is_unlimited();
        let mut pos = walk.seek(lo);
        let mut c = lo;
        while c < hi {
            let end = walk.block_end(c).min(hi);
            let high = walk.high(&pos);
            while c < end {
                let n = self.grant(sentinel, unit, (end - c).min(BATCH)) as usize;
                if n == 0 {
                    return Some(c);
                }
                self.moved = true;
                let (bits, low_index, realized) =
                    (&mut self.bits, &mut self.low_index, &mut self.realized);
                for i in 0..n {
                    (bits[i], low_index[i]) = walk.config(&pos);
                    let next = c + i as u64 + 1;
                    if next < hi {
                        walk.step(&mut pos, next);
                    }
                }
                realized[..n].fill(fixed);
                for (p, (&lane, cache)) in lanes.iter().zip(&mut self.caches).enumerate() {
                    if open >> p & 1 == 0 {
                        continue;
                    }
                    self.oracle.set_lane(lane);
                    let mut i = 0;
                    while i < n {
                        let (k, feasible) = answer(
                            &mut self.oracle,
                            cache,
                            walk,
                            c + i as u64,
                            bits[i],
                            n - i,
                            &mut self.stats,
                        );
                        let mut rest = feasible;
                        while rest != 0 {
                            realized[i + rest.trailing_zeros() as usize] |= 1 << lane;
                            rest &= rest - 1;
                        }
                        i += k;
                    }
                }
                visitor.visit(&Batch {
                    c0: c,
                    realized: &realized[..n],
                    low_index: &low_index[..n],
                    low: walk.low(),
                    high: &high,
                    track,
                });
                c += n as u64;
            }
        }
        None
    }

    /// The counters, with the oracle's repair telemetry folded in, and each
    /// lane's exported certificates.
    fn finish(mut self) -> (Vec<Vec<SolveCert>>, SweepStats) {
        self.stats.absorb_repairs(&self.oracle.take_repair_stats());
        let certs = self
            .caches
            .iter()
            .map(|c| c.as_ref().map(CertCache::export).unwrap_or_default())
            .collect();
        (certs, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::demand::FlowDemand;
    use maxflow::SolverKind;
    use netgraph::{GraphKind, Network, NetworkBuilder, NodeId};

    type SumState = PartialSweep<Sums<CompensatedAcc>>;

    fn table_weight<W: Weight>(weights: &[(W, W)], g: u64) -> W {
        let mut p = W::one();
        for (i, w) in weights.iter().enumerate() {
            p = p.mul(if g >> i & 1 == 1 { &w.0 } else { &w.1 });
        }
        p
    }

    fn table_lookup(wt: &WeightTable<f64>, g: u64) -> f64 {
        wt.low[(g & wt.low_mask) as usize] * wt.high(g)
    }

    /// Runs an `f64` sum sweep on the demand oracle's one lane, from
    /// `state` or from scratch.
    fn sum_on<K: Walk<f64>>(
        oracle: &DemandOracle,
        walk: &K,
        cfg: &SweepConfig,
        sentinel: &BudgetSentinel,
        state: Option<SumState>,
    ) -> (SumState, SweepStats) {
        let state = state.unwrap_or_else(|| PartialSweep::fresh(Sums::empty(), walk.total()));
        drive(oracle, walk, &[0], cfg, sentinel, state)
    }

    fn sum_all<K: Walk<f64>>(
        oracle: &DemandOracle,
        walk: &K,
        cfg: &SweepConfig,
    ) -> (f64, SweepStats) {
        let (done, stats) = sum_on(oracle, walk, cfg, &BudgetSentinel::unlimited(), None);
        assert!(done.is_complete(), "unlimited sweeps always finish");
        (done.visitor.feasible.finish(), stats)
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
        let wt = WeightTable::new(weights.clone());
        for g in [0u64, 1, 0xfff, 0x1000, 0x7abc, (1 << 15) - 1] {
            let direct = table_weight(&weights, g);
            assert!((table_lookup(&wt, g) - direct).abs() < 1e-15, "g={g:#x}");
        }
        assert_eq!(wt.block_end(0), 0x1000);
        assert_eq!(wt.block_end(0xfff), 0x1000);
        assert_eq!(wt.block_end(0x1000), 0x2000);
    }

    #[test]
    fn weight_table_handles_tiny_and_empty() {
        let weights: Vec<(f64, f64)> = vec![(0.8, 0.2)];
        let wt = WeightTable::new(weights.clone());
        assert!((table_lookup(&wt, 0) - 0.2).abs() < 1e-15);
        assert!((table_lookup(&wt, 1) - 0.8).abs() < 1e-15);
        let empty: Vec<(f64, f64)> = Vec::new();
        let wt0 = WeightTable::new(empty);
        assert!((table_lookup(&wt0, 0) - 1.0).abs() < 1e-15);
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

    const ALL_FOUR: [usize; 4] = [0, 1, 2, 3];

    fn diamond_setup() -> (DemandOracle, Vec<(f64, f64)>) {
        let net = diamond();
        let d = FlowDemand::new(NodeId(0), NodeId(3), 1);
        let oracle = DemandOracle::new(&net, d.source, d.sink, d.demand, SolverKind::Dinic);
        let weights = net
            .edges()
            .iter()
            .map(|e| (1.0 - e.fail_prob, e.fail_prob))
            .collect();
        (oracle, weights)
    }

    fn sum_with(cfg: &SweepConfig) -> (f64, SweepStats) {
        let (oracle, weights) = diamond_setup();
        sum_all(&oracle, &GrayWalk::new(&ALL_FOUR, 0, 4, &weights), cfg)
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
        let (oracle, all) = diamond_setup();
        // pin edge 0 alive, enumerate the rest
        let fallible = [1usize, 2, 3];
        let weights: Vec<(f64, f64)> = fallible.iter().map(|&i| all[i]).collect();
        let walk = GrayWalk::new(&fallible, 0b0001, 4, &weights);
        let (r, stats) = sum_all(&oracle, &walk, &SweepConfig::serial());
        // edge 0 alive with probability 1: R = 1 - (1 - 0.7)(1 - 0.8*0.6)
        let expected = 1.0 - (1.0 - 0.7) * (1.0 - 0.8 * 0.6);
        assert!((r - expected).abs() < 1e-12, "{r} vs {expected}");
        assert_eq!(stats.configs, 8);
    }

    /// Resumes `walk` in slices of `slice` configurations until it finishes;
    /// returns the final sum's bits and the number of slices.
    fn sliced_bits<K: Walk<f64>>(
        oracle: &DemandOracle,
        walk: &K,
        cfg: &SweepConfig,
        slice: u64,
    ) -> (u64, usize) {
        let mut state = None;
        for rounds in 1.. {
            let budget = Budget {
                max_configs: Some(slice),
                ..Default::default()
            };
            let (p, _) = sum_on(oracle, walk, cfg, &budget.start(), state.take());
            if p.is_complete() {
                return (p.visitor.feasible.finish().to_bits(), rounds);
            }
            state = Some(p);
        }
        unreachable!()
    }

    #[test]
    fn budgeted_sum_stops_and_resumes_bit_identical() {
        let (oracle, weights) = diamond_setup();
        let walk = GrayWalk::new(&ALL_FOUR, 0, 4, &weights);
        let cfg = SweepConfig {
            certificates: true,
            ..SweepConfig::serial()
        };
        let (full, _) = sum_all(&oracle, &walk, &cfg);
        let (bits, rounds) = sliced_bits(&oracle, &walk, &cfg, 5);
        assert_eq!(bits, full.to_bits(), "serial resume must be bit-identical");
        assert_eq!(rounds, 4, "16 configs in 5-config slices");
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
            w.step(&geom);
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
            assert_eq!(direct.odd, w.odd);
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
                w.step(&geom);
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
        let walk = MixedWalk::new(&geom, &weights);
        // P(c1 + c2 ≥ 2) = P(c1=2) + P(c1=1)·P(c2=1) = 0.5 + 0.3·0.6
        let expected = 0.5 + 0.3 * 0.6;
        for cfg in [
            SweepConfig::serial(),
            SweepConfig {
                certificates: true,
                ..SweepConfig::serial()
            },
            SweepConfig {
                incremental: true,
                ..SweepConfig::serial()
            },
        ] {
            let (r, stats) = sum_all(&oracle, &walk, &cfg);
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
        let walk = MixedWalk::new(&geom, &weights);
        let cfg = SweepConfig {
            certificates: true,
            ..SweepConfig::serial()
        };
        let (full, _) = sum_all(&oracle, &walk, &cfg);
        let (bits, rounds) = sliced_bits(&oracle, &walk, &cfg, 2);
        assert_eq!(
            bits,
            full.to_bits(),
            "serial mixed resume must be bit-identical"
        );
        assert_eq!(rounds, 3, "6 configs in 2-config slices");
    }

    #[test]
    fn partial_sum_bounds_bracket_the_exact_value() {
        let (oracle, weights) = diamond_setup();
        let walk = GrayWalk::new(&ALL_FOUR, 0, 4, &weights);
        let cfg = SweepConfig::serial();
        let (exact, _) = sum_all(&oracle, &walk, &cfg);
        for cut in 1..16u64 {
            let budget = Budget {
                max_configs: Some(cut),
                ..Default::default()
            };
            let (p, _) = sum_on(&oracle, &walk, &cfg, &budget.start(), None);
            assert_eq!(p.remaining, vec![(cut, 16)]);
            let r_low = p.visitor.feasible.finish();
            let explored = p.visitor.explored.finish();
            let r_high = (r_low + (1.0 - explored).max(0.0)).min(1.0);
            assert!(
                r_low <= exact + 1e-12 && exact <= r_high + 1e-12,
                "cut={cut}: [{r_low}, {r_high}] must bracket {exact}"
            );
        }
    }

    /// Twelve parallel-ish links of capacity 1 or 2 between nodes 0 and 3,
    /// with a demand-2 oracle and the links' weights.
    fn twelve_links() -> (DemandOracle, Vec<(f64, f64)>) {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        for i in 0..12 {
            let (u, v) = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)][i % 5];
            b.add_edge(n[u], n[v], 1 + (i as u64 % 2), 0.05 + 0.03 * i as f64)
                .unwrap();
        }
        let net = b.build();
        let oracle = DemandOracle::new(&net, n[0], n[3], 2, SolverKind::Dinic);
        let weights: Vec<(f64, f64)> = net
            .edges()
            .iter()
            .map(|e| (1.0 - e.fail_prob, e.fail_prob))
            .collect();
        (oracle, weights)
    }

    /// Every visitor sees the same verdicts serially and fanned out, and a
    /// multi-lane count walk realizes what one lane at a time does.
    #[test]
    fn parallel_fan_out_matches_the_serial_walk() {
        let (oracle, weights) = twelve_links();
        let fallible: Vec<usize> = (0..12).collect();
        let gray = GrayWalk::new(&fallible, 0, 12, &weights);
        let count = CountWalk::new(&weights, (0..weights.len()).collect());
        let serial = SweepConfig {
            certificates: true,
            incremental: true,
            ..SweepConfig::serial()
        };
        let par = SweepConfig {
            parallel: true,
            ..serial
        };
        let (a, _) = sum_all(&oracle, &gray, &serial);
        let (b, pstats) = sum_all(&oracle, &gray, &par);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        assert_eq!(pstats.configs, 1 << 12);
        let unlimited = BudgetSentinel::unlimited();
        let table = |cfg: &SweepConfig| {
            let fresh = PartialSweep::fresh(Masks::new(0, 1 << 12), 1 << 12);
            drive(&oracle, &count, &[0], cfg, &unlimited, fresh)
                .0
                .visitor
                .masks
        };
        let masks = table(&serial);
        assert_eq!(masks, table(&par));
        // the table and the spectrum agree on which configurations realize
        let fresh = PartialSweep::fresh(Masses(vec![0.0; 2]), 1 << 12);
        let spectrum = drive(&oracle, &count, &[0], &par, &unlimited, fresh)
            .0
            .visitor
            .0;
        let feasible: f64 = (0..1u64 << 12)
            .filter(|&c| masks[c as usize] == 1)
            .map(|c| table_weight(&weights, c))
            .sum();
        assert!((spectrum[1] - feasible).abs() < 1e-12);
        assert!((spectrum[1] - a).abs() < 1e-12);
    }

    /// Hides a walk's blocks, so `drive` answers every configuration it
    /// does not close with a `classify` call of its own.
    struct Opaque<'a, K>(&'a K);

    impl<W: Weight, K: Walk<W>> Walk<W> for Opaque<'_, K> {
        type Pos = K::Pos;

        fn width(&self) -> usize {
            self.0.width()
        }

        fn total(&self) -> u64 {
            self.0.total()
        }

        fn edge_count(&self) -> usize {
            self.0.edge_count()
        }

        fn extremes(&self) -> [u64; 2] {
            self.0.extremes()
        }

        fn block_end(&self, c: u64) -> u64 {
            self.0.block_end(c)
        }

        fn seek(&self, c: u64) -> K::Pos {
            self.0.seek(c)
        }

        fn step(&self, pos: &mut K::Pos, next: u64) {
            self.0.step(pos, next)
        }

        fn config(&self, pos: &K::Pos) -> (u64, usize) {
            self.0.config(pos)
        }

        fn high(&self, pos: &K::Pos) -> W {
            self.0.high(pos)
        }

        fn low(&self) -> &[W] {
            self.0.low()
        }

        fn block(&self, _c: u64, _bits: u64) -> Option<Block> {
            None
        }

        fn cube_weights(&self) -> Option<&[(W, W)]> {
            self.0.cube_weights()
        }
    }

    /// A visitor's accumulation, bit for bit.
    trait Bits {
        fn bits(&self) -> Vec<u64>;
    }

    impl Bits for Sums<CompensatedAcc> {
        fn bits(&self) -> Vec<u64> {
            let ((f, fc), (e, ec)) = (self.feasible.state(), self.explored.state());
            [f, fc, e, ec].iter().map(|x| x.to_bits()).collect()
        }
    }

    impl Bits for Masses<f64> {
        fn bits(&self) -> Vec<u64> {
            self.0.iter().map(|x| x.to_bits()).collect()
        }
    }

    impl Bits for Masks {
        fn bits(&self) -> Vec<u64> {
            self.masks.iter().map(|&m| u64::from(m)).collect()
        }
    }

    /// Drives `walk` with and without its blocks, serially in resume slices
    /// of a few budget sizes and unlimited, and fanned out unlimited (fanned
    /// out, workers race for a budget's grants), and checks that every slice
    /// leaves the same visitor bits, `remaining` ranges, certificates and
    /// counters.
    fn assert_runs_change_nothing<K, V, O>(
        oracle: &O,
        walk: &K,
        lanes: &[usize],
        fresh: impl Fn() -> PartialSweep<V>,
    ) where
        K: Walk<f64>,
        V: Visitor<f64> + Bits,
        O: SweepOracle + Clone + Send + Sync,
    {
        let serial = SweepConfig {
            certificates: true,
            incremental: true,
            ..SweepConfig::serial()
        };
        let fanned = SweepConfig {
            parallel: true,
            ..serial
        };
        let opaque = Opaque(walk);
        let slices = [None, Some(1), Some(37), Some(100), Some(1000)];
        for (cfg, slices) in [(serial, &slices[..]), (fanned, &slices[..1])] {
            for &slice in slices {
                let (mut a, mut b) = (fresh(), fresh());
                let mut rounds = 0;
                loop {
                    let sentinel = || {
                        Budget {
                            max_configs: slice,
                            ..Default::default()
                        }
                        .start()
                    };
                    let (pa, sa) = drive(oracle, walk, lanes, &cfg, &sentinel(), a);
                    let (pb, sb) = drive(oracle, &opaque, lanes, &cfg, &sentinel(), b);
                    let at = format!("parallel {}, slice {slice:?}, round {rounds}", cfg.parallel);
                    assert_eq!(sa, sb, "counters, {at}");
                    assert_eq!(pa.remaining, pb.remaining, "remaining, {at}");
                    assert_eq!(pa.certs, pb.certs, "certificates, {at}");
                    assert_eq!(pa.visitor.bits(), pb.visitor.bits(), "visitor, {at}");
                    if pa.is_complete() {
                        break;
                    }
                    (a, b, rounds) = (pa, pb, rounds + 1);
                }
                assert!(
                    slice.is_none() || rounds > 0,
                    "slice {slice:?} must interrupt"
                );
            }
        }
    }

    #[test]
    fn block_runs_change_nothing_on_gray_walks() {
        let (oracle, weights) = twelve_links();
        let fallible: Vec<usize> = (0..12).collect();
        let gray = GrayWalk::new(&fallible, 0, 12, &weights);
        let fresh = || PartialSweep::fresh(Sums::empty(), 1 << 12);
        assert_runs_change_nothing(&oracle, &gray, &[0], fresh);
        // links 3 and 8 pinned alive: the low links are no longer 0..6
        let fallible: Vec<usize> = (0..12).filter(|&i| i != 3 && i != 8).collect();
        let some: Vec<(f64, f64)> = fallible.iter().map(|&i| weights[i]).collect();
        let pinned = GrayWalk::new(&fallible, 1 << 3 | 1 << 8, 12, &some);
        let fresh = || PartialSweep::fresh(Sums::empty(), 1 << 10);
        assert_runs_change_nothing(&oracle, &pinned, &[0], fresh);
    }

    #[test]
    fn block_runs_change_nothing_on_count_walks() {
        use crate::assign::Assignment;
        use crate::decompose::Side;
        // a source side: terminal 0, attach points 4 and 5, capacities 1–3
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(6);
        let links = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (1, 4),
            (2, 5),
            (0, 3),
            (1, 2),
            (4, 5),
            (2, 4),
        ];
        for (i, &(u, v)) in links.iter().enumerate() {
            b.add_edge(n[u], n[v], 1 + i as u64 % 3, 0.04 + 0.02 * i as f64)
                .unwrap();
        }
        let side = Side {
            net: b.build(),
            edge_origin: vec![],
            terminal: n[0],
            attach: vec![n[4], n[5]],
            is_source_side: true,
        };
        let assignments: Vec<Assignment> = [[2, 0], [1, 1], [0, 2]]
            .iter()
            .map(|a| Assignment {
                amounts: a.to_vec(),
            })
            .collect();
        let oracle = SideOracle::new(&side, &assignments, SolverKind::Dinic).unwrap();
        let weights = crate::weight::edge_weights(&side.net);
        let count = CountWalk::new(&weights, (0..weights.len()).collect());
        let lanes = [0, 1, 2];
        let masses = || PartialSweep::fresh(Masses(vec![0.0; 8]), 1 << 12);
        assert_runs_change_nothing(&oracle, &count, &lanes, masses);
        let table = || PartialSweep::fresh(Masks::new(0, 1 << 12), 1 << 12);
        assert_runs_change_nothing(&oracle, &count, &lanes, table);
        // the demand oracle's one lane over the same walk order
        let (oracle, weights) = twelve_links();
        let count = CountWalk::new(&weights, (0..weights.len()).collect());
        let sums = || PartialSweep::fresh(Sums::empty(), 1 << 12);
        assert_runs_change_nothing(&oracle, &count, &[0], sums);
    }

    /// Both walks describe their blocks truthfully: every index's
    /// configuration is its block's configuration at its position.
    #[test]
    fn walks_describe_their_blocks() {
        let (_, weights) = twelve_links();
        let fallible: Vec<usize> = [11, 0, 5, 7, 2, 9, 1, 3].to_vec();
        let some: Vec<(f64, f64)> = fallible.iter().map(|&i| weights[i]).collect();
        let gray = GrayWalk::new(&fallible, 1 << 4, 12, &some);
        let count = CountWalk::new(&weights, (0..weights.len()).collect());
        fn check<K: Walk<f64>>(walk: &K) {
            let mut pos = walk.seek(0);
            for c in 0..walk.total() {
                if c > 0 {
                    walk.step(&mut pos, c);
                }
                let (bits, _) = walk.config(&pos);
                let block = walk.block(c, bits).unwrap();
                assert_eq!(block.config((c % 64) as u32), bits, "index {c}");
                // any index of the block describes the same block
                let first = walk.config(&walk.seek(c - c % 64)).0;
                assert_eq!(walk.block(c - c % 64, first).unwrap().config(0), first);
            }
        }
        check(&gray);
        check(&count);
        let few = CountWalk::new(&weights[..5], (0..5).collect());
        assert!(few.block(0, 0).is_none(), "blocks need six links");
    }
}
