//! Stratified sampling conditioned on a chosen link subset: the plan behind
//! the engine's dagger estimator.
//!
//! Pick `k` strata links (naturally a bottleneck set, tying this estimator to
//! the paper's decomposition). Each of the `2^k` availability configurations
//! of the strata links is a stratum whose probability is a known product; the
//! estimator samples only the remaining links within each stratum and
//! combines: `R = Σ_j p_j · R_j`. The strata links contribute zero sampling
//! variance, and within-stratum variance is weighted by `p_j²/n_j < p_j/n`.
//!
//! [`StrataPlan`] additionally *classifies* each stratum by monotonicity —
//! if the demand is infeasible with every free link alive the stratum
//! contributes exactly 0; if it is feasible with every free link dead it
//! contributes exactly its probability — so only genuinely *mixed* strata
//! are ever sampled. This is the conditional ("dagger")
//! decomposition the engine's rare-event estimator builds on: the exact mass
//! absorbs the overwhelming bulk of the probability near R → 1, leaving the
//! sampler to resolve only the strata where the answer is in doubt.

use maxflow::{build_flow, SolverKind, Workspace};
use netgraph::{EdgeId, EdgeMask, Network, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

use crate::check_edges;
use crate::engine::SampleOracle;
use crate::error::McError;

/// Maximum strata links: `2^k` strata must stay enumerable.
pub const MAX_STRATA_LINKS: usize = 16;

/// How a stratum resolved during classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StratumClass {
    /// Feasible even with every free link failed: contributes exactly `p`.
    AlwaysUp,
    /// Infeasible even with every free link alive: contributes exactly 0.
    AlwaysDown,
    /// Feasibility depends on the free links: must be sampled.
    Mixed,
}

/// A stratum that classification could not resolve and must be sampled.
#[derive(Clone, Debug)]
pub(crate) struct MixedStratum {
    /// Exact probability of the strata-link configuration.
    pub p: f64,
    /// Alive-bits of the strata links in this configuration.
    pub fixed_bits: u64,
}

/// Validated, classified sampling plan over the strata of `strata_links`.
///
/// Construction performs at most `2·2^k` flow evaluations to classify every
/// stratum (monotonicity gives one-sided shortcuts), recording the exact
/// probability mass of always-feasible strata in `exact_mass` and the list of
/// mixed strata left to sample.
#[derive(Clone, Debug)]
pub(crate) struct StrataPlan {
    /// Per-link failure probabilities.
    pub probs: Vec<f64>,
    /// Links not in the strata set, sampled within each stratum.
    pub free: Vec<usize>,
    /// Strata needing sampling, in ascending configuration order.
    pub mixed: Vec<MixedStratum>,
    /// Exact probability mass of strata proven always-feasible.
    pub exact_mass: f64,
    /// Flow evaluations spent on classification.
    pub classify_evals: u64,
}

impl StrataPlan {
    /// Validates the strata set and classifies every stratum.
    pub fn build(
        net: &Network,
        s: NodeId,
        t: NodeId,
        demand: u64,
        strata_links: &[EdgeId],
        solver: SolverKind,
    ) -> Result<StrataPlan, McError> {
        let m = check_edges(net)?;
        let k = strata_links.len();
        if k > MAX_STRATA_LINKS {
            return Err(McError::TooManyStrataLinks {
                count: k,
                max: MAX_STRATA_LINKS,
            });
        }
        let mut seen = std::collections::HashSet::new();
        for &e in strata_links {
            if e.index() >= m {
                return Err(McError::StratumLinkOutOfRange { link: e, edges: m });
            }
            if !seen.insert(e) {
                return Err(McError::DuplicateStratumLink { link: e });
            }
        }
        let strata_set: Vec<usize> = strata_links.iter().map(|e| e.index()).collect();
        let free: Vec<usize> = (0..m).filter(|i| !strata_set.contains(i)).collect();
        let probs: Vec<f64> = net.edges().iter().map(|e| e.fail_prob).collect();
        let free_bits: u64 = free.iter().fold(0u64, |acc, &i| acc | 1 << i);

        let mut nf = build_flow(net, s, t);
        let mut ws = Workspace::new();
        let mut admits = |bits: u64, evals: &mut u64| -> bool {
            if demand == 0 {
                return true;
            }
            *evals += 1;
            nf.apply_mask(EdgeMask::from_bits(bits, m));
            solver.solve_ws(&mut nf.graph, nf.source, nf.sink, demand, &mut ws) >= demand
        };

        let mut mixed = Vec::new();
        let mut exact_mass = 0.0f64;
        let mut classify_evals = 0u64;
        for stratum in 0..1usize << k {
            let mut p = 1.0f64;
            let mut fixed_bits = 0u64;
            for (bit, &ei) in strata_set.iter().enumerate() {
                if stratum >> bit & 1 == 1 {
                    p *= 1.0 - probs[ei];
                    fixed_bits |= 1 << ei;
                } else {
                    p *= probs[ei];
                }
            }
            if p == 0.0 {
                continue;
            }
            let class = if !admits(fixed_bits | free_bits, &mut classify_evals) {
                StratumClass::AlwaysDown
            } else if admits(fixed_bits, &mut classify_evals) {
                StratumClass::AlwaysUp
            } else {
                StratumClass::Mixed
            };
            match class {
                StratumClass::AlwaysUp => exact_mass += p,
                StratumClass::AlwaysDown => {}
                StratumClass::Mixed => mixed.push(MixedStratum { p, fixed_bits }),
            }
        }
        Ok(StrataPlan {
            probs,
            free,
            mixed,
            exact_mass,
            classify_evals,
        })
    }

    /// Splits `batch` samples across the mixed strata proportionally to their
    /// probability (largest-remainder rounding, at least one sample each).
    /// Returns an empty vector when nothing needs sampling.
    pub fn alloc(&self, batch: u64) -> Vec<u64> {
        let k = self.mixed.len();
        if k == 0 {
            return Vec::new();
        }
        let total_p: f64 = self.mixed.iter().map(|s| s.p).sum();
        let batch = batch.max(k as u64);
        let mut alloc: Vec<u64> = Vec::with_capacity(k);
        let mut rems: Vec<(usize, f64)> = Vec::with_capacity(k);
        let mut assigned = 0u64;
        for (j, st) in self.mixed.iter().enumerate() {
            let share = if total_p > 0.0 {
                batch as f64 * st.p / total_p
            } else {
                batch as f64 / k as f64
            };
            let base = (share.floor() as u64).max(1);
            alloc.push(base);
            assigned += base;
            rems.push((j, share - share.floor()));
        }
        // distribute any shortfall to the largest remainders
        rems.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut left = batch.saturating_sub(assigned);
        for (j, _) in rems {
            if left == 0 {
                break;
            }
            alloc[j] += 1;
            left -= 1;
        }
        alloc
    }

    /// Draws `quota` conditional samples inside mixed stratum `j` using `rng`
    /// and counts the ones `oracle` finds feasible.
    pub fn sample_stratum(
        &self,
        j: usize,
        quota: u64,
        oracle: &mut SampleOracle,
        rng: &mut StdRng,
    ) -> u64 {
        let st = &self.mixed[j];
        let mut successes = 0u64;
        for _ in 0..quota {
            let mut bits = st.fixed_bits;
            for &i in &self.free {
                if rng.gen::<f64>() >= self.probs[i] {
                    bits |= 1 << i;
                }
            }
            successes += u64::from(oracle.admits(bits));
        }
        successes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, EstimatorKind, McReport, McSettings, StopTarget};
    use crate::McBudget;
    use netgraph::{GraphKind, NetworkBuilder};

    /// s -e0- a -e1- t with an unreliable middle link: stratifying on e1
    /// removes most of the variance.
    fn chain() -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.4).unwrap();
        b.build()
    }

    /// Runs the engine's dagger estimator on `net` stratified on `strata`.
    fn dagger(
        net: &Network,
        t: NodeId,
        strata: &[EdgeId],
        samples: u64,
        seed: u64,
    ) -> Result<McReport, McError> {
        let settings = McSettings {
            seed,
            estimator: EstimatorKind::Dagger,
            strata: strata.to_vec(),
            target: StopTarget {
                max_samples: samples,
                ..Default::default()
            },
            ..Default::default()
        };
        run(
            net,
            NodeId(0),
            t,
            1,
            &settings,
            &McBudget::unlimited(),
            false,
        )
        .map(|out| *out.report())
    }

    #[test]
    fn dagger_covers_and_beats_crude_variance() {
        let net = chain();
        let exact = 0.9 * 0.6;
        let strat = dagger(&net, NodeId(2), &[EdgeId(1)], 20_000, 3).unwrap();
        assert!(
            strat.ci_low <= exact && exact <= strat.ci_high,
            "dagger {strat:?} misses exact {exact}"
        );
        // stratifying on the unreliable link removes most of the variance
        let crude = (exact * (1.0 - exact) / 20_000.0).sqrt();
        assert!(
            strat.std_error <= crude * 1.05,
            "dagger {} vs crude {crude}",
            strat.std_error
        );
        // deterministic per seed
        assert_eq!(
            strat,
            dagger(&net, NodeId(2), &[EdgeId(1)], 20_000, 3).unwrap()
        );
    }

    #[test]
    fn stratifying_all_links_is_exact() {
        // every link a stratum link: classification resolves every stratum
        // by monotonicity, nothing is left to sample, zero variance
        let net = chain();
        let e = dagger(&net, NodeId(2), &[EdgeId(0), EdgeId(1)], 100, 1).unwrap();
        assert!(e.exact);
        assert!((e.mean - 0.9 * 0.6).abs() < 1e-12);
        assert_eq!(e.std_error, 0.0);
        assert_eq!(e.samples, 0, "fully classified plans sample nothing");
        assert_eq!((e.ci_low, e.ci_high), (e.mean, e.mean));
    }

    #[test]
    fn rejects_duplicate_strata() {
        let net = chain();
        let e = dagger(&net, NodeId(2), &[EdgeId(1), EdgeId(1)], 100, 1);
        assert_eq!(e, Err(McError::DuplicateStratumLink { link: EdgeId(1) }));
        let e = dagger(&net, NodeId(2), &[EdgeId(7)], 100, 1);
        assert_eq!(
            e,
            Err(McError::StratumLinkOutOfRange {
                link: EdgeId(7),
                edges: 2
            })
        );
    }

    #[test]
    fn perfect_strata_links_skip_impossible_strata() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.0).unwrap(); // never fails
        let net = b.build();
        let e = dagger(&net, NodeId(1), &[EdgeId(0)], 100, 1).unwrap();
        assert_eq!(e.mean, 1.0);
        assert_eq!(e.std_error, 0.0);
    }

    #[test]
    fn classification_shortcuts_are_sound() {
        // two parallel links p=0.1, demand 1, stratify on e0:
        //   stratum e0-up   -> feasible with e1 dead  => AlwaysUp (mass 0.9)
        //   stratum e0-down -> mixed (depends on e1)
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        let net = b.build();
        let plan = StrataPlan::build(
            &net,
            NodeId(0),
            NodeId(1),
            1,
            &[EdgeId(0)],
            SolverKind::Dinic,
        )
        .unwrap();
        assert!((plan.exact_mass - 0.9).abs() < 1e-12);
        assert_eq!(plan.mixed.len(), 1);
        assert!((plan.mixed[0].p - 0.1).abs() < 1e-12);
        assert!(plan.classify_evals <= 4);
    }

    #[test]
    fn alloc_is_proportional_and_exhaustive() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.3).unwrap();
        b.add_edge(n[1], n[2], 1, 0.3).unwrap();
        b.add_edge(n[0], n[2], 1, 0.3).unwrap();
        let net = b.build();
        let plan = StrataPlan::build(
            &net,
            NodeId(0),
            NodeId(2),
            1,
            &[EdgeId(0), EdgeId(2)],
            SolverKind::Dinic,
        )
        .unwrap();
        if !plan.mixed.is_empty() {
            let alloc = plan.alloc(1000);
            assert_eq!(alloc.len(), plan.mixed.len());
            assert!(alloc.iter().all(|&a| a >= 1));
            assert!(alloc.iter().sum::<u64>() >= 1000.min(plan.mixed.len() as u64));
        }
    }
}
