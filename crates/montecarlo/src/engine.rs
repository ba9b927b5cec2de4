//! The budget-aware estimation engine.
//!
//! [`run`] drives one of three estimators — crude sampling, the conditional
//! **dagger** sampler over bottleneck-link strata ([`crate::stratified`]),
//! or the **permutation** rare-event estimator ([`crate::pmc`]) — in
//! deterministic batches until a stopping target is met, the sample cap is
//! reached, or the [`McBudget`] interrupts. An interrupted run returns an
//! honest partial estimate *and* a [`McCheckpoint`]; [`resume`] continues it
//! **bit-identically**: the final report of interrupt-and-resume equals the
//! uninterrupted run's, because
//!
//! * batch `b` always draws from the RNG stream
//!   `stream_seed(seed, ENGINE | b)`, independent of scheduling;
//! * the stopping rule is evaluated after every batch *in batch order*, so
//!   the stop point is a function of the settings alone (parallel waves are
//!   speculative — batches past the stop point are discarded unmerged);
//! * permutation sums are folded with Neumaier compensation in batch order.
//!
//! Crude and dagger samples ask a per-batch certificate cache
//! ([`maxflow::certcache`]) before they run the max-flow solver. A cached
//! certificate returns the solver's own verdict, so estimates, intervals and
//! checkpoints are the same with or without it; `flow_evals` counts the
//! solves actually made, and since each batch starts with an empty cache
//! that count does not depend on scheduling either.
//!
//! Exact classification shortcuts resolve trivial regimes without sampling:
//! a dagger plan whose every stratum is monotonically decided returns the
//! exact reliability outright, and the permutation plan recognizes `R = 1` /
//! `R = 0` instances from two flow evaluations.
//!
//! **Multi-state networks** (links carrying capacity spectra) are supported
//! by the crude and permutation estimators, which sample over the network's
//! tranche expansion: crude draws each link's state from its spectrum
//! (one categorical draw per link), permutation runs Botev's
//! capacity-ordered construction process with one repair clock per capacity
//! tranche (see [`crate::pmc`]). The dagger estimator refuses multi-state
//! networks — its strata conditioning is inherently binary. All-binary
//! networks take exactly the legacy code paths, so existing results and
//! checkpoints are bit-identical.

use maxflow::{build_flow, CertCache, NetworkFlow, SolverKind, Workspace, CERTIFICATE_CACHE_SIZE};
use netgraph::{EdgeId, EdgeMask, Network, NodeId, StateExpansion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::budget::{McBudget, McSentinel};
use crate::error::McError;
use crate::pmc::{MultiPermPlan, PermPlan};
use crate::stratified::StrataPlan;
use crate::{effective_n, stream_seed, wilson_half, wilson_interval, STREAM_ENGINE, Z95};

/// Which estimator the engine runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Let the caller pick: `core` resolves this to [`EstimatorKind::Dagger`]
    /// when a bottleneck is found and [`EstimatorKind::Permutation`]
    /// otherwise. The engine itself rejects `Auto`.
    #[default]
    Auto,
    /// Independent 0/1 samples of the full configuration space.
    Crude,
    /// Conditional sampling stratified on the configured strata links, with
    /// monotone strata resolved exactly.
    Dagger,
    /// Permutation (turnip) estimator for the rare-event regime.
    Permutation,
}

impl EstimatorKind {
    /// Stable lowercase name, used in reports and checkpoints.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Auto => "auto",
            EstimatorKind::Crude => "crude",
            EstimatorKind::Dagger => "dagger",
            EstimatorKind::Permutation => "perm",
        }
    }

    /// Parses [`EstimatorKind::name`] back.
    pub fn from_name(name: &str) -> Option<EstimatorKind> {
        match name {
            "auto" => Some(EstimatorKind::Auto),
            "crude" => Some(EstimatorKind::Crude),
            "dagger" => Some(EstimatorKind::Dagger),
            "perm" => Some(EstimatorKind::Permutation),
            _ => None,
        }
    }
}

/// When to stop sampling. Targets combine conjunctively: sampling continues
/// until every configured target is met (or `max_samples` is reached).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StopTarget {
    /// Stop when the 95% half-width is at most `rel_err · min(R̂, 1−R̂)` —
    /// relative to the *smaller* tail, which is what rare-event estimation
    /// is about. Unreachable while the estimate sits exactly on 0 or 1.
    pub rel_err: Option<f64>,
    /// Stop when the 95% half-width is at most this absolute value.
    pub ci_half: Option<f64>,
    /// Hard sample cap; the run finishes with an honest interval when the
    /// cap is reached before the targets.
    pub max_samples: u64,
}

impl Default for StopTarget {
    fn default() -> Self {
        StopTarget {
            rel_err: None,
            ci_half: None,
            max_samples: 1_000_000,
        }
    }
}

/// Full, checkpointable description of one estimation experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct McSettings {
    /// Base RNG seed; all batch streams are derived from it.
    pub seed: u64,
    /// Which estimator to run.
    pub estimator: EstimatorKind,
    /// Strata links for [`EstimatorKind::Dagger`] (ignored by the others).
    pub strata: Vec<EdgeId>,
    /// Stopping targets.
    pub target: StopTarget,
    /// Samples per batch (the granularity of stopping, budgeting, and
    /// parallel dispatch).
    pub batch: u64,
    /// Max-flow algorithm used for feasibility checks.
    pub solver: SolverKind,
}

impl Default for McSettings {
    fn default() -> Self {
        McSettings {
            seed: 0,
            estimator: EstimatorKind::Crude,
            strata: Vec::new(),
            target: StopTarget::default(),
            batch: 1024,
            solver: SolverKind::Dinic,
        }
    }
}

/// Result of an estimation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McReport {
    /// Reliability estimate.
    pub mean: f64,
    /// Standard error of the estimate (0 when `exact`).
    pub std_error: f64,
    /// Lower end of the 95% Wilson interval.
    pub ci_low: f64,
    /// Upper end of the 95% Wilson interval.
    pub ci_high: f64,
    /// Samples drawn (0 when the answer was classified exactly).
    pub samples: u64,
    /// Max-flow solver calls made, classification included. A crude or
    /// dagger sample that a cached certificate decides costs none, so this
    /// can be far below `samples`.
    pub flow_evals: u64,
    /// Name of the estimator that produced the report.
    pub estimator: &'static str,
    /// True when the value is exact (classification resolved everything);
    /// the interval is then the point itself.
    pub exact: bool,
}

/// What a run produced.
#[derive(Clone, Debug, PartialEq)]
pub enum McOutcome {
    /// The stopping rule (or the sample cap) was reached.
    Done(McReport),
    /// The budget interrupted the run; `report` is the honest partial
    /// estimate so far and `checkpoint` resumes it bit-identically.
    Interrupted {
        /// Estimate from the samples drawn before the interrupt.
        report: McReport,
        /// Resumable state.
        checkpoint: McCheckpoint,
    },
}

impl McOutcome {
    /// The report, complete or partial.
    pub fn report(&self) -> &McReport {
        match self {
            McOutcome::Done(r) => r,
            McOutcome::Interrupted { report, .. } => report,
        }
    }
}

/// Estimator-specific sufficient statistics, exactly as checkpointed.
#[derive(Clone, Debug, PartialEq)]
pub enum McAccum {
    /// Crude: success count.
    Counts {
        /// Successful samples so far.
        successes: u64,
    },
    /// Dagger: per-mixed-stratum `(successes, samples)`, in plan order.
    Strata {
        /// One entry per mixed stratum.
        counts: Vec<(u64, u64)>,
    },
    /// Permutation: Neumaier-compensated `Σx` and `Σx²` as
    /// `(sum, compensation)` pairs.
    Perm {
        /// Compensated running sum of the conditional unreliabilities.
        sum: (f64, f64),
        /// Compensated running sum of their squares.
        sum_sq: (f64, f64),
    },
}

/// Resumable engine state: settings plus sufficient statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct McCheckpoint {
    /// The experiment being resumed (never changes across resumes).
    pub settings: McSettings,
    /// Next batch index to draw.
    pub next_batch: u64,
    /// Samples merged so far.
    pub samples: u64,
    /// Max-flow solver calls made so far (classification included); a
    /// sample a cached certificate decides costs none.
    pub flow_evals: u64,
    /// Estimator statistics.
    pub accum: McAccum,
}

fn neumaier_add(acc: &mut (f64, f64), x: f64) {
    let (sum, comp) = *acc;
    let t = sum + x;
    let c = if sum.abs() >= x.abs() {
        (sum - t) + x
    } else {
        (x - t) + sum
    };
    *acc = (t, comp + c);
}

fn neumaier_value(acc: (f64, f64)) -> f64 {
    acc.0 + acc.1
}

fn validate(settings: &McSettings) -> Result<(), McError> {
    if settings.estimator == EstimatorKind::Auto {
        return Err(McError::BadParameter {
            what: "estimator",
            reason: "Auto must be resolved to a concrete estimator by the caller".into(),
        });
    }
    if settings.batch == 0 {
        return Err(McError::BadParameter {
            what: "batch",
            reason: "batch size must be at least 1".into(),
        });
    }
    if settings.target.max_samples == 0 {
        return Err(McError::NoSamples);
    }
    for (name, v) in [
        ("rel_err", settings.target.rel_err),
        ("ci_half", settings.target.ci_half),
    ] {
        if let Some(v) = v {
            if !v.is_finite() || v <= 0.0 {
                return Err(McError::BadParameter {
                    what: name,
                    reason: format!("want a finite positive value, got {v}"),
                });
            }
        }
    }
    Ok(())
}

/// Estimator context: the validated plan each batch samples from.
///
/// Multi-state networks get their own crude and permutation variants that
/// sample over the tranche expansion; all-binary networks take the original
/// variants bit-for-bit, so legacy results and checkpoints are unchanged.
enum Ctx {
    Crude {
        probs: Vec<f64>,
    },
    /// Crude over a multi-state network: one categorical state draw per
    /// digit (inverse CDF), mapped onto tranche-arc bits of the expansion.
    CrudeMulti {
        x: StateExpansion,
        /// Per-digit cumulative state probabilities, ascending by capacity.
        cdfs: Vec<Vec<f64>>,
    },
    Dagger {
        plan: StrataPlan,
    },
    Perm {
        plan: PermPlan,
    },
    /// Permutation over a multi-state network: capacity-ordered
    /// construction process with one repair clock per tranche gate.
    PermMulti {
        plan: MultiPermPlan,
    },
}

impl Ctx {
    fn build(
        net: &Network,
        s: NodeId,
        t: NodeId,
        demand: u64,
        settings: &McSettings,
    ) -> Result<(Ctx, u64), McError> {
        match settings.estimator {
            EstimatorKind::Auto => Err(McError::BadParameter {
                what: "estimator",
                reason: "Auto must be resolved to a concrete estimator by the caller".into(),
            }),
            EstimatorKind::Crude => {
                if net.has_multistate() {
                    let x = crate::expand_multistate(net)?;
                    crate::check_edges(&x.net)?;
                    let cdfs = x
                        .digits
                        .iter()
                        .map(|d| {
                            let mut acc = 0.0f64;
                            d.probs
                                .iter()
                                .map(|&p| {
                                    acc += p;
                                    acc
                                })
                                .collect()
                        })
                        .collect();
                    return Ok((Ctx::CrudeMulti { x, cdfs }, 0));
                }
                crate::check_edges(net)?;
                let probs = net.edges().iter().map(|e| e.fail_prob).collect();
                Ok((Ctx::Crude { probs }, 0))
            }
            EstimatorKind::Dagger => {
                if net.has_multistate() {
                    return Err(McError::MultiState {
                        operation: "the dagger (stratified) estimator",
                    });
                }
                let plan = StrataPlan::build(net, s, t, demand, &settings.strata, settings.solver)?;
                let evals = plan.classify_evals;
                Ok((Ctx::Dagger { plan }, evals))
            }
            EstimatorKind::Permutation => {
                if net.has_multistate() {
                    let plan = MultiPermPlan::build(net, s, t, demand, settings.solver)?;
                    let evals = plan.classify_evals;
                    return Ok((Ctx::PermMulti { plan }, evals));
                }
                let plan = PermPlan::build(net, s, t, demand, settings.solver)?;
                let evals = plan.classify_evals;
                Ok((Ctx::Perm { plan }, evals))
            }
        }
    }

    fn estimator_name(&self) -> &'static str {
        match self {
            Ctx::Crude { .. } | Ctx::CrudeMulti { .. } => "crude",
            Ctx::Dagger { .. } => "dagger",
            Ctx::Perm { .. } | Ctx::PermMulti { .. } => "perm",
        }
    }

    /// An exact answer available without sampling, if any.
    fn exact_shortcut(&self, demand: u64) -> Option<f64> {
        if demand == 0 {
            return Some(1.0);
        }
        match self {
            Ctx::Crude { .. } | Ctx::CrudeMulti { .. } => None,
            Ctx::Dagger { plan } => plan.mixed.is_empty().then_some(plan.exact_mass),
            Ctx::Perm { plan } => {
                if plan.trivially_up {
                    Some(1.0)
                } else if plan.never_up {
                    Some(0.0)
                } else {
                    None
                }
            }
            Ctx::PermMulti { plan } => {
                if plan.trivially_up {
                    Some(1.0)
                } else if plan.never_up {
                    Some(0.0)
                } else {
                    None
                }
            }
        }
    }

    fn fresh_accum(&self) -> McAccum {
        match self {
            Ctx::Crude { .. } | Ctx::CrudeMulti { .. } => McAccum::Counts { successes: 0 },
            Ctx::Dagger { plan } => McAccum::Strata {
                counts: vec![(0, 0); plan.mixed.len()],
            },
            Ctx::Perm { .. } | Ctx::PermMulti { .. } => McAccum::Perm {
                sum: (0.0, 0.0),
                sum_sq: (0.0, 0.0),
            },
        }
    }

    fn accum_matches(&self, accum: &McAccum) -> bool {
        match (self, accum) {
            (Ctx::Crude { .. } | Ctx::CrudeMulti { .. }, McAccum::Counts { .. }) => true,
            (Ctx::Dagger { plan }, McAccum::Strata { counts }) => counts.len() == plan.mixed.len(),
            (Ctx::Perm { .. } | Ctx::PermMulti { .. }, McAccum::Perm { .. }) => true,
            _ => false,
        }
    }

    /// Draws batch `b` (quota samples) on its own RNG stream and flow graph.
    #[allow(clippy::too_many_arguments)]
    fn compute_batch(
        &self,
        net: &Network,
        s: NodeId,
        t: NodeId,
        demand: u64,
        settings: &McSettings,
        b: u64,
        quota: u64,
    ) -> BatchOut {
        let mut rng = StdRng::seed_from_u64(stream_seed(settings.seed, STREAM_ENGINE | b));
        let solver = settings.solver;
        match self {
            Ctx::Crude { probs } => {
                let mut oracle = SampleOracle::new(net, s, t, demand, solver);
                let mut successes = 0u64;
                for _ in 0..quota {
                    let mut bits = 0u64;
                    for (i, &p) in probs.iter().enumerate() {
                        if rng.gen::<f64>() >= p {
                            bits |= 1 << i;
                        }
                    }
                    successes += u64::from(oracle.admits(bits));
                }
                BatchOut::Counts {
                    successes,
                    samples: quota,
                    evals: oracle.evals,
                }
            }
            Ctx::CrudeMulti { x, cdfs } => {
                // sampled over the tranche expansion, whose arcs the bits
                // index; the node ids are shared
                let mut oracle = SampleOracle::new(&x.net, s, t, demand, solver);
                let mut successes = 0u64;
                for _ in 0..quota {
                    let mut bits = x.pinned;
                    for (d, cdf) in x.digits.iter().zip(cdfs) {
                        // one categorical draw per link: the smallest state
                        // whose cumulative probability exceeds the uniform
                        let u: f64 = rng.gen();
                        let mut v = 0usize;
                        while v + 1 < d.radix && u >= cdf[v] {
                            v += 1;
                        }
                        bits |= d.value_bits(v);
                    }
                    successes += u64::from(oracle.admits(bits));
                }
                BatchOut::Counts {
                    successes,
                    samples: quota,
                    evals: oracle.evals,
                }
            }
            Ctx::Dagger { plan } => {
                // one cache for every stratum of the batch: the strata differ
                // only in their fixed links, and certificates hold across them
                let mut oracle = SampleOracle::new(net, s, t, demand, solver);
                let alloc = plan.alloc(quota);
                let mut counts = Vec::with_capacity(alloc.len());
                let mut samples = 0u64;
                for (j, &n_j) in alloc.iter().enumerate() {
                    let succ = plan.sample_stratum(j, n_j, &mut oracle, &mut rng);
                    counts.push((succ, n_j));
                    samples += n_j;
                }
                BatchOut::Strata {
                    counts,
                    samples,
                    evals: oracle.evals,
                }
            }
            Ctx::Perm { plan } => {
                let mut nf = build_flow(net, s, t);
                let mut ws = Workspace::new();
                let mut evals = 0u64;
                let mut sum = 0.0f64;
                let mut sum_sq = 0.0f64;
                for _ in 0..quota {
                    let x = plan.sample_one(demand, solver, &mut nf, &mut ws, &mut rng, &mut evals);
                    sum += x;
                    sum_sq += x * x;
                }
                BatchOut::Perm {
                    sum,
                    sum_sq,
                    samples: quota,
                    evals,
                }
            }
            Ctx::PermMulti { plan } => {
                let mut nf = build_flow(&plan.x.net, s, t);
                let mut ws = Workspace::new();
                let mut evals = 0u64;
                let mut sum = 0.0f64;
                let mut sum_sq = 0.0f64;
                for _ in 0..quota {
                    let x = plan.sample_one(demand, solver, &mut nf, &mut ws, &mut rng, &mut evals);
                    sum += x;
                    sum_sq += x * x;
                }
                BatchOut::Perm {
                    sum,
                    sum_sq,
                    samples: quota,
                    evals,
                }
            }
        }
    }
}

/// The feasibility test behind every crude and dagger sample of one batch.
///
/// A certificate in the batch's [`CertCache`] answers when it can; a miss
/// runs the max-flow solver and records the certificate the solve carries.
/// Certificates are exact, so every verdict is the solver's and every
/// estimate is unchanged; only `evals`, the solver calls actually made,
/// depends on the cache. Each batch starts with an empty cache, so `evals`
/// depends on the batch's own samples alone, never on how batches are
/// scheduled or where a run was interrupted.
pub(crate) struct SampleOracle {
    nf: NetworkFlow,
    ws: Workspace,
    cache: CertCache,
    edge_count: usize,
    solver: SolverKind,
    demand: u64,
    /// Solver calls made so far.
    evals: u64,
}

impl SampleOracle {
    /// Lowers `net` for the `s → t` demand with an empty cache.
    fn new(net: &Network, s: NodeId, t: NodeId, demand: u64, solver: SolverKind) -> Self {
        let caps: Vec<u64> = net.edges().iter().map(|e| e.capacity).collect();
        SampleOracle {
            nf: build_flow(net, s, t),
            ws: Workspace::new(),
            cache: CertCache::new(CERTIFICATE_CACHE_SIZE, &caps),
            edge_count: caps.len(),
            solver,
            demand,
            evals: 0,
        }
    }

    /// Does the configuration whose alive links are `bits` carry the demand?
    pub(crate) fn admits(&mut self, bits: u64) -> bool {
        if let Some(verdict) = self.cache.classify(bits) {
            return verdict;
        }
        self.evals += 1;
        let (nf, demand) = (&mut self.nf, self.demand);
        nf.apply_mask(EdgeMask::from_bits(bits, self.edge_count));
        let flow = self
            .solver
            .solve_ws(&mut nf.graph, nf.source, nf.sink, demand, &mut self.ws);
        let ok = flow >= demand;
        self.cache.record(nf.certificate(ok, demand));
        ok
    }
}

/// One batch's contribution, merged strictly in batch order.
enum BatchOut {
    Counts {
        successes: u64,
        samples: u64,
        evals: u64,
    },
    Strata {
        counts: Vec<(u64, u64)>,
        samples: u64,
        evals: u64,
    },
    Perm {
        sum: f64,
        sum_sq: f64,
        samples: u64,
        evals: u64,
    },
}

struct Drive<'a> {
    net: &'a Network,
    s: NodeId,
    t: NodeId,
    demand: u64,
    settings: &'a McSettings,
    ctx: Ctx,
    accum: McAccum,
    samples: u64,
    flow_evals: u64,
    next_batch: u64,
}

impl Drive<'_> {
    fn quota(&self, b: u64) -> u64 {
        let max = self.settings.target.max_samples;
        let before = b.saturating_mul(self.settings.batch);
        if before >= max {
            0
        } else {
            self.settings.batch.min(max - before)
        }
    }

    fn merge(&mut self, out: BatchOut) {
        match (&mut self.accum, out) {
            (
                McAccum::Counts { successes },
                BatchOut::Counts {
                    successes: s,
                    samples,
                    evals,
                },
            ) => {
                *successes += s;
                self.samples += samples;
                self.flow_evals += evals;
            }
            (
                McAccum::Strata { counts },
                BatchOut::Strata {
                    counts: c,
                    samples,
                    evals,
                },
            ) => {
                for (acc, add) in counts.iter_mut().zip(c) {
                    acc.0 += add.0;
                    acc.1 += add.1;
                }
                self.samples += samples;
                self.flow_evals += evals;
            }
            (
                McAccum::Perm { sum, sum_sq },
                BatchOut::Perm {
                    sum: s,
                    sum_sq: s2,
                    samples,
                    evals,
                },
            ) => {
                neumaier_add(sum, s);
                neumaier_add(sum_sq, s2);
                self.samples += samples;
                self.flow_evals += evals;
            }
            // accum shape is fixed at construction; batches always match
            _ => {}
        }
    }

    /// Current `(mean, std_error)`, or `None` before any sample.
    fn stats(&self) -> Option<(f64, f64)> {
        if self.samples == 0 {
            return None;
        }
        match (&self.accum, &self.ctx) {
            (McAccum::Counts { successes }, _) => {
                let n = self.samples as f64;
                let mean = *successes as f64 / n;
                Some((mean, (mean * (1.0 - mean) / n).sqrt()))
            }
            (McAccum::Strata { counts }, Ctx::Dagger { plan }) => {
                let mut mean = plan.exact_mass;
                let mut variance = 0.0f64;
                for (st, &(succ, n_j)) in plan.mixed.iter().zip(counts) {
                    if n_j == 0 {
                        return None; // cannot happen: every batch covers all strata
                    }
                    let n = n_j as f64;
                    mean += st.p * succ as f64 / n;
                    // Wilson-smoothed per-stratum rate so an all-0/all-1
                    // stratum still contributes stopping variance
                    let r = (succ as f64 + 2.0) / (n + 4.0);
                    variance += st.p * st.p * r * (1.0 - r) / n;
                }
                Some((mean, variance.sqrt()))
            }
            (McAccum::Perm { sum, sum_sq }, _) => {
                let n = self.samples as f64;
                let q_mean = neumaier_value(*sum) / n;
                let var = if self.samples < 2 {
                    q_mean * (1.0 - q_mean) // fall back to the Bernoulli bound
                } else {
                    (neumaier_value(*sum_sq) - n * q_mean * q_mean).max(0.0) / (n - 1.0)
                };
                Some(((1.0 - q_mean).clamp(0.0, 1.0), (var / n).sqrt()))
            }
            _ => None,
        }
    }

    fn target_met(&self) -> bool {
        let target = &self.settings.target;
        if target.rel_err.is_none() && target.ci_half.is_none() {
            return false;
        }
        let Some((mean, se)) = self.stats() else {
            return false;
        };
        let half = wilson_half(mean, effective_n(mean, self.samples, se), Z95);
        if let Some(c) = target.ci_half {
            if half > c {
                return false;
            }
        }
        if let Some(r) = target.rel_err {
            let scale = mean.min(1.0 - mean);
            if !scale.is_finite() || scale <= 0.0 || half > r * scale {
                return false;
            }
        }
        true
    }

    fn report(&self) -> McReport {
        match self.stats() {
            Some((mean, se)) => {
                let (lo, hi) = wilson_interval(mean, effective_n(mean, self.samples, se), Z95);
                McReport {
                    mean,
                    std_error: se,
                    ci_low: lo,
                    ci_high: hi,
                    samples: self.samples,
                    flow_evals: self.flow_evals,
                    estimator: self.ctx.estimator_name(),
                    exact: false,
                }
            }
            // interrupted before the first batch: total ignorance, honestly
            None => McReport {
                mean: 0.0,
                std_error: 0.0,
                ci_low: 0.0,
                ci_high: 1.0,
                samples: 0,
                flow_evals: self.flow_evals,
                estimator: self.ctx.estimator_name(),
                exact: false,
            },
        }
    }

    fn checkpoint(&self) -> McCheckpoint {
        McCheckpoint {
            settings: self.settings.clone(),
            next_batch: self.next_batch,
            samples: self.samples,
            flow_evals: self.flow_evals,
            accum: self.accum.clone(),
        }
    }

    fn run(mut self, sentinel: &McSentinel, parallel: bool) -> McOutcome {
        let wave = if parallel {
            (2 * rayon::current_num_threads()).max(1)
        } else {
            1
        };
        let mut run_samples = 0u64;
        // re-check an already-satisfied target (e.g. a resumed checkpoint
        // taken at the cap) before drawing anything
        if self.target_met() || self.samples >= self.settings.target.max_samples {
            let report = self.report();
            return McOutcome::Done(report);
        }
        loop {
            if sentinel.interrupted() || sentinel.samples_exhausted(run_samples) {
                return McOutcome::Interrupted {
                    report: self.report(),
                    checkpoint: self.checkpoint(),
                };
            }
            let ids: Vec<u64> = (self.next_batch..self.next_batch + wave as u64)
                .filter(|&b| self.quota(b) > 0)
                .collect();
            if ids.is_empty() {
                return McOutcome::Done(self.report());
            }
            let outs: Vec<BatchOut> = if parallel {
                let ctx = &self.ctx;
                let (net, s, t, demand, settings) =
                    (self.net, self.s, self.t, self.demand, self.settings);
                let quotas: Vec<(u64, u64)> = ids.iter().map(|&b| (b, self.quota(b))).collect();
                quotas
                    .into_par_iter()
                    .map(|(b, q)| ctx.compute_batch(net, s, t, demand, settings, b, q))
                    .collect_vec()
            } else {
                ids.iter()
                    .map(|&b| {
                        self.ctx.compute_batch(
                            self.net,
                            self.s,
                            self.t,
                            self.demand,
                            self.settings,
                            b,
                            self.quota(b),
                        )
                    })
                    .collect()
            };
            for out in outs {
                let before = self.samples;
                self.merge(out);
                run_samples += self.samples - before;
                self.next_batch += 1;
                if self.target_met() || self.samples >= self.settings.target.max_samples {
                    return McOutcome::Done(self.report());
                }
            }
        }
    }
}

fn exact_report(mean: f64, flow_evals: u64, estimator: &'static str) -> McReport {
    McReport {
        mean,
        std_error: 0.0,
        ci_low: mean,
        ci_high: mean,
        samples: 0,
        flow_evals,
        estimator,
        exact: true,
    }
}

/// Runs one estimation experiment under `budget`.
///
/// `parallel` fans batches out over rayon workers; serial and parallel runs
/// of the same settings produce the **same** outcome (batches are merged and
/// the stopping rule applied strictly in batch order).
pub fn run(
    net: &Network,
    s: NodeId,
    t: NodeId,
    demand: u64,
    settings: &McSettings,
    budget: &McBudget,
    parallel: bool,
) -> Result<McOutcome, McError> {
    validate(settings)?;
    let (ctx, classify_evals) = Ctx::build(net, s, t, demand, settings)?;
    if let Some(mean) = ctx.exact_shortcut(demand) {
        return Ok(McOutcome::Done(exact_report(
            mean,
            classify_evals,
            ctx.estimator_name(),
        )));
    }
    let accum = ctx.fresh_accum();
    let drive = Drive {
        net,
        s,
        t,
        demand,
        settings,
        ctx,
        accum,
        samples: 0,
        flow_evals: classify_evals,
        next_batch: 0,
    };
    Ok(drive.run(&budget.start(), parallel))
}

/// Refuses a checkpoint whose counts no run could have written: more
/// successes than samples (overall or in a stratum), strata samples that do
/// not add up, a permutation sum outside `[0, samples]`, or samples without
/// a drawn batch. Resuming such counts would report a "reliability" outside
/// `[0, 1]` or draw batches twice.
fn check_counts(checkpoint: &McCheckpoint) -> Result<(), McError> {
    let samples = checkpoint.samples;
    let bad = |reason: String| Err(McError::CheckpointMismatch { reason });
    if checkpoint.next_batch == 0 && samples != 0 {
        return bad(format!(
            "{samples} samples before the first batch was drawn"
        ));
    }
    match &checkpoint.accum {
        McAccum::Counts { successes } => {
            if *successes > samples {
                return bad(format!("{successes} successes out of {samples} samples"));
            }
        }
        McAccum::Strata { counts } => {
            let mut total = 0u64;
            for (j, &(succ, n)) in counts.iter().enumerate() {
                if succ > n {
                    return bad(format!("stratum {j}: {succ} successes out of {n} samples"));
                }
                total = total.saturating_add(n);
            }
            if total != samples {
                return bad(format!(
                    "strata samples add up to {total}, not the {samples} recorded"
                ));
            }
        }
        McAccum::Perm { sum, sum_sq } => {
            for (what, acc) in [("sum", *sum), ("sum of squares", *sum_sq)] {
                let v = neumaier_value(acc);
                // NaN and infinities fall outside the range too
                if !(0.0..=samples as f64).contains(&v) {
                    return bad(format!(
                        "permutation {what} {v} lies outside [0, {samples}]"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Resumes an interrupted run from its checkpoint, bit-identically: the
/// final report equals what the uninterrupted run would have produced
/// (plan classification is re-derived from the instance and not re-billed
/// to `flow_evals`).
pub fn resume(
    net: &Network,
    s: NodeId,
    t: NodeId,
    demand: u64,
    checkpoint: &McCheckpoint,
    budget: &McBudget,
    parallel: bool,
) -> Result<McOutcome, McError> {
    let settings = &checkpoint.settings;
    validate(settings)?;
    let (ctx, _) = Ctx::build(net, s, t, demand, settings)?;
    if ctx.exact_shortcut(demand).is_some() {
        return Err(McError::CheckpointMismatch {
            reason: "instance is exactly classifiable; no sampling checkpoint can refer to it"
                .into(),
        });
    }
    if !ctx.accum_matches(&checkpoint.accum) {
        return Err(McError::CheckpointMismatch {
            reason: "accumulator shape does not match the instance's sampling plan".into(),
        });
    }
    check_counts(checkpoint)?;
    let max_per_batch = settings
        .batch
        .max(crate::stratified::MAX_STRATA_LINKS as u64 * 2);
    if checkpoint.samples
        > checkpoint
            .next_batch
            .saturating_mul(max_per_batch.saturating_mul(2))
        && checkpoint.next_batch > 0
    {
        return Err(McError::CheckpointMismatch {
            reason: format!(
                "{} samples cannot have come from {} batches of {}",
                checkpoint.samples, checkpoint.next_batch, settings.batch
            ),
        });
    }
    let drive = Drive {
        net,
        s,
        t,
        demand,
        settings,
        ctx,
        accum: checkpoint.accum.clone(),
        samples: checkpoint.samples,
        flow_evals: checkpoint.flow_evals,
        next_batch: checkpoint.next_batch,
    };
    Ok(drive.run(&budget.start(), parallel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{GraphKind, NetworkBuilder};

    fn two_parallel(p: f64) -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, p).unwrap();
        b.add_edge(n[0], n[1], 1, p).unwrap();
        b.build()
    }

    fn settings(estimator: EstimatorKind, max_samples: u64) -> McSettings {
        McSettings {
            seed: 42,
            estimator,
            target: StopTarget {
                max_samples,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn rejects_auto_and_bad_targets() {
        let net = two_parallel(0.1);
        let bad = settings(EstimatorKind::Auto, 1000);
        assert!(matches!(
            run(
                &net,
                NodeId(0),
                NodeId(1),
                1,
                &bad,
                &McBudget::unlimited(),
                false
            ),
            Err(McError::BadParameter {
                what: "estimator",
                ..
            })
        ));
        let mut bad = settings(EstimatorKind::Crude, 1000);
        bad.target.rel_err = Some(-0.5);
        assert!(matches!(
            run(
                &net,
                NodeId(0),
                NodeId(1),
                1,
                &bad,
                &McBudget::unlimited(),
                false
            ),
            Err(McError::BadParameter {
                what: "rel_err",
                ..
            })
        ));
        let mut bad = settings(EstimatorKind::Crude, 1000);
        bad.batch = 0;
        assert!(run(
            &net,
            NodeId(0),
            NodeId(1),
            1,
            &bad,
            &McBudget::unlimited(),
            false
        )
        .is_err());
    }

    #[test]
    fn crude_engine_covers_truth_and_parallel_matches_serial() {
        let net = two_parallel(0.1);
        let s = settings(EstimatorKind::Crude, 40_000);
        let a = run(
            &net,
            NodeId(0),
            NodeId(1),
            2,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let b = run(
            &net,
            NodeId(0),
            NodeId(1),
            2,
            &s,
            &McBudget::unlimited(),
            true,
        )
        .unwrap();
        assert_eq!(a, b, "serial and parallel runs must agree bit for bit");
        let r = a.report();
        assert_eq!(r.samples, 40_000);
        assert!(r.ci_low <= 0.81 && 0.81 <= r.ci_high, "{r:?}");
        assert!(!r.exact);
    }

    #[test]
    fn dagger_classification_makes_simple_instances_exact() {
        // stratify on both links: every stratum is monotone-decided
        let net = two_parallel(0.1);
        let mut s = settings(EstimatorKind::Dagger, 10_000);
        s.strata = vec![EdgeId(0), EdgeId(1)];
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            1,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r = out.report();
        assert!(r.exact);
        assert_eq!(r.samples, 0);
        assert!((r.mean - 0.99).abs() < 1e-12, "{r:?}");
        assert_eq!((r.ci_low, r.ci_high), (r.mean, r.mean));
    }

    #[test]
    fn dagger_samples_mixed_strata_and_covers() {
        // bridge s-a-t with parallel second path; stratify only on e0 so a
        // mixed stratum remains
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.3).unwrap();
        b.add_edge(n[1], n[2], 1, 0.3).unwrap();
        b.add_edge(n[0], n[2], 1, 0.3).unwrap();
        let net = b.build();
        // exact: R = P(direct) + P(!direct) * P(chain) = 0.7 + 0.3*0.49
        let exact = 0.7 + 0.3 * 0.49;
        let mut s = settings(EstimatorKind::Dagger, 40_000);
        s.strata = vec![EdgeId(2)];
        let out = run(
            &net,
            NodeId(0),
            NodeId(2),
            1,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r = out.report();
        assert!(!r.exact);
        // a fixed seed pins one sample path; assert a 4-sigma band rather
        // than 95% coverage so the test cannot flake on a 2-sigma draw
        assert!(
            (r.mean - exact).abs() <= 4.0 * r.std_error,
            "{} is too far from {exact} (se {})",
            r.mean,
            r.std_error
        );
        assert!(r.ci_high > r.ci_low);
    }

    #[test]
    fn perm_engine_covers_truth() {
        let net = two_parallel(0.1);
        let s = settings(EstimatorKind::Permutation, 20_000);
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            2,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r = out.report();
        assert!(r.ci_low <= 0.81 && 0.81 <= r.ci_high, "{r:?}");
        // PMC samples are smooth: the measured error should beat crude's
        assert!(
            r.std_error < (0.81f64 * 0.19 / 20_000.0).sqrt() * 1.05,
            "{r:?}"
        );
    }

    #[test]
    fn perm_engine_is_exact_on_trivial_instances() {
        let net = two_parallel(0.1);
        let s = settings(EstimatorKind::Permutation, 1000);
        // demand 3 exceeds total capacity: R = 0 without sampling
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            3,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(out.report().mean, 0.0);
        assert!(out.report().exact);
        // demand 0: R = 1
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            0,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(out.report().mean, 1.0);
        assert!(out.report().exact);
    }

    #[test]
    fn rel_err_stopping_stops_early() {
        let net = two_parallel(0.1);
        let mut s = settings(EstimatorKind::Crude, 1_000_000);
        s.target.ci_half = Some(0.05);
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            2,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let McOutcome::Done(r) = out else {
            panic!("unlimited budget cannot interrupt")
        };
        assert!(r.samples < 1_000_000, "loose target must stop early: {r:?}");
        assert!((r.ci_high - r.ci_low) / 2.0 <= 0.05 * 1.01);
    }

    #[test]
    fn budget_interrupt_and_resume_is_bit_identical() {
        let mut dagger = settings(EstimatorKind::Dagger, 30_000);
        dagger.strata = vec![EdgeId(2)];
        let cases = [
            (
                two_parallel(0.1),
                NodeId(1),
                2,
                settings(EstimatorKind::Crude, 30_000),
            ),
            (bridge(), NodeId(3), 1, dagger),
        ];
        for (net, t, demand, s) in cases {
            let full = run(
                &net,
                NodeId(0),
                t,
                demand,
                &s,
                &McBudget::unlimited(),
                false,
            )
            .unwrap();

            // interrupt after ~10k samples via the per-run sample allowance
            let small = McBudget {
                max_samples: Some(10_000),
                ..Default::default()
            };
            let out = run(&net, NodeId(0), t, demand, &s, &small, false).unwrap();
            let McOutcome::Interrupted { report, checkpoint } = out else {
                panic!("10k allowance must interrupt a 30k run")
            };
            assert!(report.samples >= 10_000 && report.samples < 30_000);
            assert!(report.ci_high > report.ci_low, "partial interval is honest");

            // resume with no budget: must equal the uninterrupted run exactly,
            // flow evaluations included
            let resumed = resume(
                &net,
                NodeId(0),
                t,
                demand,
                &checkpoint,
                &McBudget::unlimited(),
                false,
            )
            .unwrap();
            assert_eq!(
                resumed, full,
                "{:?}: interrupt+resume must be bit-identical",
                s.estimator
            );
        }
    }

    #[test]
    fn resume_rejects_mismatched_checkpoints() {
        let net = two_parallel(0.1);
        let s = settings(EstimatorKind::Crude, 30_000);
        let small = McBudget {
            max_samples: Some(5_000),
            ..Default::default()
        };
        let out = run(&net, NodeId(0), NodeId(1), 2, &s, &small, false).unwrap();
        let McOutcome::Interrupted { mut checkpoint, .. } = out else {
            panic!("must interrupt")
        };
        // swap in an accumulator of the wrong shape
        checkpoint.accum = McAccum::Perm {
            sum: (0.0, 0.0),
            sum_sq: (0.0, 0.0),
        };
        let err = resume(
            &net,
            NodeId(0),
            NodeId(1),
            2,
            &checkpoint,
            &McBudget::unlimited(),
            false,
        );
        assert!(matches!(err, Err(McError::CheckpointMismatch { .. })));
    }

    /// Runs `s` under a 5k-sample allowance and returns its checkpoint.
    fn interrupted(net: &Network, t: NodeId, demand: u64, s: &McSettings) -> McCheckpoint {
        let small = McBudget {
            max_samples: Some(5_000),
            ..Default::default()
        };
        match run(net, NodeId(0), t, demand, s, &small, false).unwrap() {
            McOutcome::Interrupted { checkpoint, .. } => checkpoint,
            McOutcome::Done(r) => panic!("a 5k allowance must interrupt: {r:?}"),
        }
    }

    /// Whether resuming `checkpoint` is refused as a mismatch.
    fn refused(net: &Network, t: NodeId, demand: u64, checkpoint: &McCheckpoint) -> bool {
        let out = resume(
            net,
            NodeId(0),
            t,
            demand,
            checkpoint,
            &McBudget::unlimited(),
            false,
        );
        matches!(out, Err(McError::CheckpointMismatch { .. }))
    }

    fn dagger_checkpoint() -> McCheckpoint {
        let mut s = settings(EstimatorKind::Dagger, 30_000);
        s.strata = vec![EdgeId(2)];
        interrupted(&bridge(), NodeId(3), 1, &s)
    }

    #[test]
    fn resume_rejects_more_successes_than_samples() {
        let net = two_parallel(0.1);
        let mut ck = interrupted(&net, NodeId(1), 2, &settings(EstimatorKind::Crude, 30_000));
        assert!(
            !refused(&net, NodeId(1), 2, &ck),
            "the untouched checkpoint resumes"
        );
        ck.accum = McAccum::Counts {
            successes: ck.samples + 1,
        };
        assert!(refused(&net, NodeId(1), 2, &ck));
    }

    #[test]
    fn resume_rejects_a_stratum_with_more_successes_than_samples() {
        let mut ck = dagger_checkpoint();
        assert!(
            !refused(&bridge(), NodeId(3), 1, &ck),
            "the untouched checkpoint resumes"
        );
        let McAccum::Strata { counts } = &mut ck.accum else {
            panic!("dagger checkpoints carry strata counts")
        };
        counts[0].0 = counts[0].1 + 1;
        assert!(refused(&bridge(), NodeId(3), 1, &ck));
    }

    #[test]
    fn resume_rejects_strata_samples_that_do_not_add_up() {
        let mut ck = dagger_checkpoint();
        let McAccum::Strata { counts } = &mut ck.accum else {
            panic!("dagger checkpoints carry strata counts")
        };
        counts[0].1 += 1;
        assert!(refused(&bridge(), NodeId(3), 1, &ck));
    }

    #[test]
    fn resume_rejects_permutation_sums_outside_the_sample_range() {
        let net = two_parallel(0.1);
        let s = settings(EstimatorKind::Permutation, 30_000);
        let ck = interrupted(&net, NodeId(1), 2, &s);
        assert!(
            !refused(&net, NodeId(1), 2, &ck),
            "the untouched checkpoint resumes"
        );
        let McAccum::Perm { sum, sum_sq } = ck.accum.clone() else {
            panic!("permutation checkpoints carry sums")
        };
        let n = ck.samples as f64;
        for bad in [
            (n + 1.0, 0.0),
            (-1.0, 0.0),
            (f64::NAN, 0.0),
            (0.0, f64::INFINITY),
        ] {
            for accum in [
                McAccum::Perm { sum: bad, sum_sq },
                McAccum::Perm { sum, sum_sq: bad },
            ] {
                let ck = McCheckpoint {
                    accum,
                    ..ck.clone()
                };
                assert!(refused(&net, NodeId(1), 2, &ck), "{:?}", ck.accum);
            }
        }
    }

    #[test]
    fn resume_rejects_samples_before_the_first_batch() {
        let net = two_parallel(0.1);
        let mut ck = interrupted(&net, NodeId(1), 2, &settings(EstimatorKind::Crude, 30_000));
        assert!(ck.samples > 0);
        ck.next_batch = 0;
        assert!(refused(&net, NodeId(1), 2, &ck));
    }

    #[test]
    fn zero_deadline_interrupts_before_sampling() {
        let net = two_parallel(0.1);
        let s = settings(EstimatorKind::Crude, 30_000);
        let budget = McBudget {
            time_limit: Some(std::time::Duration::from_secs(0)),
            ..Default::default()
        };
        let out = run(&net, NodeId(0), NodeId(1), 2, &s, &budget, false).unwrap();
        let McOutcome::Interrupted { report, checkpoint } = out else {
            panic!("zero deadline must interrupt")
        };
        assert_eq!(report.samples, 0);
        assert_eq!((report.ci_low, report.ci_high), (0.0, 1.0));
        assert_eq!(checkpoint.next_batch, 0);
    }

    /// A 3-state link `{0: 0.2, 1: 0.3, 2: 0.5}` in series with a binary
    /// link (cap 2, p = 0.1): R(d=1) = 0.8·0.9 = 0.72, R(d=2) = 0.5·0.9
    /// = 0.45.
    fn spectrum_series() -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_spectrum_edge(n[0], n[1], &[(0, 0.2), (1, 0.3), (2, 0.5)])
            .unwrap();
        b.add_edge(n[1], n[2], 2, 0.1).unwrap();
        b.build()
    }

    /// A single 3-state link `{0: 0.2, 1: 0.3, 2: 0.5}`: R(d=1) = 0.8.
    ///
    /// This instance distinguishes the prefix (capacity-ordered)
    /// construction from naively independent tranche gates: independent
    /// gates would give `P(cap ≥ 1) = 1 − 0.2·0.375 = 0.925`, not 0.8.
    fn spectrum_single() -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_spectrum_edge(n[0], n[1], &[(0, 0.2), (1, 0.3), (2, 0.5)])
            .unwrap();
        b.build()
    }

    #[test]
    fn crude_engine_samples_multistate_and_parallel_matches_serial() {
        let net = spectrum_series();
        let s = settings(EstimatorKind::Crude, 40_000);
        let a = run(
            &net,
            NodeId(0),
            NodeId(2),
            2,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let b = run(
            &net,
            NodeId(0),
            NodeId(2),
            2,
            &s,
            &McBudget::unlimited(),
            true,
        )
        .unwrap();
        assert_eq!(a, b, "serial and parallel runs must agree bit for bit");
        let r = a.report();
        assert_eq!(r.estimator, "crude");
        assert_eq!(r.samples, 40_000);
        assert!(r.ci_low <= 0.45 && 0.45 <= r.ci_high, "{r:?}");
        // and the d = 1 marginal is exact too (exercises the state CDF)
        let r1 = run(
            &net,
            NodeId(0),
            NodeId(2),
            1,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r1 = r1.report();
        assert!(
            (r1.mean - 0.72).abs() <= 4.0 * r1.std_error.max(1e-9),
            "{r1:?}"
        );
    }

    #[test]
    fn perm_engine_respects_multistate_marginals() {
        // prefix construction: the estimate must center on R = 0.8, not the
        // independent-gate value 0.925
        let net = spectrum_single();
        let s = settings(EstimatorKind::Permutation, 20_000);
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            1,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r = out.report();
        assert_eq!(r.estimator, "perm");
        assert!(!r.exact);
        assert!(r.ci_low <= 0.8 && 0.8 <= r.ci_high, "{r:?}");
        assert!(
            (r.mean - 0.8).abs() <= 4.0 * r.std_error.max(1e-9),
            "prefix semantics violated: {r:?}"
        );
        // the series instance at demand 2 (R = 0.45) exercises pending
        // gates across two digits
        let net = spectrum_series();
        let out = run(
            &net,
            NodeId(0),
            NodeId(2),
            2,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r = out.report();
        assert!(
            (r.mean - 0.45).abs() <= 4.0 * r.std_error.max(1e-9),
            "{r:?}"
        );
    }

    #[test]
    fn perm_engine_classifies_multistate_extremes_exactly() {
        // nonzero floor: capacity ≥ 1 in every state, so d = 1 is certain
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_spectrum_edge(n[0], n[1], &[(1, 0.5), (4, 0.5)])
            .unwrap();
        let net = b.build();
        let s = settings(EstimatorKind::Permutation, 1000);
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            1,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(out.report().mean, 1.0);
        assert!(out.report().exact);
        // demand above the best state: R = 0 without sampling
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            5,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(out.report().mean, 0.0);
        assert!(out.report().exact);
    }

    #[test]
    fn dagger_refuses_multistate_networks() {
        let net = spectrum_series();
        let mut s = settings(EstimatorKind::Dagger, 1000);
        s.strata = vec![EdgeId(1)];
        let err = run(
            &net,
            NodeId(0),
            NodeId(2),
            1,
            &s,
            &McBudget::unlimited(),
            false,
        );
        assert!(matches!(err, Err(McError::MultiState { .. })), "{err:?}");
    }

    #[test]
    fn multistate_interrupt_and_resume_is_bit_identical() {
        let net = spectrum_series();
        for estimator in [EstimatorKind::Crude, EstimatorKind::Permutation] {
            let s = settings(estimator, 30_000);
            let full = run(
                &net,
                NodeId(0),
                NodeId(2),
                2,
                &s,
                &McBudget::unlimited(),
                false,
            )
            .unwrap();
            let small = McBudget {
                max_samples: Some(10_000),
                ..Default::default()
            };
            let out = run(&net, NodeId(0), NodeId(2), 2, &s, &small, false).unwrap();
            let McOutcome::Interrupted { checkpoint, .. } = out else {
                panic!("10k allowance must interrupt a 30k run")
            };
            let resumed = resume(
                &net,
                NodeId(0),
                NodeId(2),
                2,
                &checkpoint,
                &McBudget::unlimited(),
                false,
            )
            .unwrap();
            assert_eq!(
                resumed, full,
                "{estimator:?}: interrupt+resume must be bit-identical"
            );
        }
    }

    #[test]
    fn rare_event_crude_does_not_stop_on_a_degenerate_batch() {
        // p = 1e-4 two-link instance, true R = 1 - 1e-8: the first batches
        // are all successes, where a normal-approximation half-width is 0.
        // The Wilson half-width of the `ci_half` target stays positive, so
        // sampling continues past the first batch and the interval is never
        // a point.
        let net = two_parallel(1e-4);
        let exact = 1.0 - 1e-8;
        let mut s = settings(EstimatorKind::Crude, 50_000);
        s.seed = 11;
        s.batch = 4096;
        s.target.ci_half = Some(1e-4);
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            1,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r = out.report();
        assert!(
            r.samples > 4096,
            "Wilson stopping must keep sampling past one degenerate batch"
        );
        assert!(r.ci_high > r.ci_low, "interval must never be zero-width");
        assert!(
            r.ci_low <= exact && exact <= r.ci_high,
            "[{}, {}] must cover {exact}",
            r.ci_low,
            r.ci_high
        );
    }

    #[test]
    fn zero_demand_is_exact_and_zero_samples_is_an_error() {
        let net = two_parallel(0.1);
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            0,
            &settings(EstimatorKind::Crude, 100),
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r = out.report();
        assert!(r.exact && r.samples == 0);
        assert_eq!((r.mean, r.ci_low, r.ci_high), (1.0, 1.0, 1.0));
        let none = run(
            &net,
            NodeId(0),
            NodeId(1),
            1,
            &settings(EstimatorKind::Crude, 0),
            &McBudget::unlimited(),
            false,
        );
        assert_eq!(none, Err(McError::NoSamples));
    }

    #[test]
    fn small_runs_report_clamped_honest_intervals() {
        // ten samples of a 0.99 instance are likely all successes; the
        // interval must still stay inside [0, 1] and keep a positive width
        let net = two_parallel(0.1);
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            1,
            &settings(EstimatorKind::Crude, 10),
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r = out.report();
        assert_eq!(r.samples, 10);
        assert!((0.0..=1.0).contains(&r.ci_low) && (0.0..=1.0).contains(&r.ci_high));
        assert!(r.ci_high > r.ci_low);
    }

    #[test]
    fn rare_event_perm_beats_crude_and_stays_honest() {
        // R = 1 - 1e-8; crude sees no failure in 20k samples
        let net = two_parallel(1e-4);
        let exact = 1.0 - 1e-8;
        let s = settings(EstimatorKind::Permutation, 20_000);
        let out = run(
            &net,
            NodeId(0),
            NodeId(1),
            1,
            &s,
            &McBudget::unlimited(),
            false,
        )
        .unwrap();
        let r = out.report();
        assert!(
            r.ci_low <= exact && exact <= r.ci_high,
            "[{}, {}] must cover {exact}",
            r.ci_low,
            r.ci_high
        );
        assert!(r.ci_high > r.ci_low, "never a zero-width interval");
        // the PMC point estimate nails Q to high relative accuracy
        assert!(
            ((1.0 - r.mean) - 1e-8).abs() < 1e-10,
            "Q estimate {} should be ~1e-8",
            1.0 - r.mean
        );
    }

    /// Wheatstone bridge: s = 0, t = 3, and a middle link 1–2 (e2) that
    /// carries flow either way.
    fn bridge() -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[2], 1, 0.2).unwrap();
        b.add_edge(n[1], n[2], 1, 0.3).unwrap();
        b.add_edge(n[1], n[3], 1, 0.2).unwrap();
        b.add_edge(n[2], n[3], 1, 0.1).unwrap();
        b.build()
    }

    /// One fixed-seed run of each sampling loop that consults the batch
    /// certificate cache: `(name, network, sink, demand, settings)`.
    fn cached_runs() -> [(&'static str, Network, NodeId, u64, McSettings); 3] {
        let mut dagger = settings(EstimatorKind::Dagger, 20_000);
        dagger.strata = vec![EdgeId(2)];
        [
            (
                "crude",
                bridge(),
                NodeId(3),
                1,
                settings(EstimatorKind::Crude, 20_000),
            ),
            (
                "crude, 3-state link",
                spectrum_series(),
                NodeId(2),
                2,
                settings(EstimatorKind::Crude, 20_000),
            ),
            ("dagger", bridge(), NodeId(3), 1, dagger),
        ]
    }

    #[test]
    fn certificates_leave_estimates_unchanged_and_skip_most_solves() {
        // bit patterns of (mean, ci_low, ci_high) and the sample count, as
        // the samplers produced them when every sample ran the solver
        const PINNED: [(u64, u64, u64, u64); 3] = [
            (
                0x3fee_5c28_f5c2_8f5c,
                0x3fee_4269_3e77_a6bc,
                0x3fee_747f_36af_08b0,
                20_000,
            ),
            (
                0x3fdc_e560_4189_374c,
                0x3fdc_748a_16e3_1ea8,
                0x3fdd_5684_8e0a_f67a,
                20_000,
            ),
            (
                0x3fee_5e27_0a9d_d579,
                0x3fee_447b_188e_8f83,
                0x3fee_7669_e9e5_1c3f,
                20_000,
            ),
        ];
        for ((name, net, t, demand, s), want) in cached_runs().into_iter().zip(PINNED) {
            let serial = run(
                &net,
                NodeId(0),
                t,
                demand,
                &s,
                &McBudget::unlimited(),
                false,
            )
            .unwrap();
            let r = *serial.report();
            assert_eq!(
                (
                    r.mean.to_bits(),
                    r.ci_low.to_bits(),
                    r.ci_high.to_bits(),
                    r.samples
                ),
                want,
                "{name}: {r:?}"
            );
            assert!(
                r.flow_evals < r.samples / 10,
                "{name}: certificates must decide most samples: {r:?}"
            );
            let parallel =
                run(&net, NodeId(0), t, demand, &s, &McBudget::unlimited(), true).unwrap();
            assert_eq!(
                serial, parallel,
                "{name}: serial and parallel runs must agree bit for bit, flow evaluations included"
            );
        }
    }
}
