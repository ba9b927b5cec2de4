//! # montecarlo — statistical reliability estimation
//!
//! The exact algorithms are exponential; Monte-Carlo sampling is the only
//! practical path at scale and the natural baseline to compare the paper's
//! algorithm against. Everything runs through one estimation engine
//! ([`engine`]): budget-aware, checkpointable estimation driven by a
//! relative-error target, an absolute CI half-width target (`ci_half`), or
//! a plain sample cap, with three estimators:
//!
//! * **crude** — independent samples of the full configuration space;
//! * **dagger** — conditional sampling stratified on a chosen link subset
//!   (naturally the bottleneck links of the paper's decomposition), with
//!   monotone strata resolved exactly ([`stratified`]);
//! * **permutation** ("turnip") — the rare-event estimator of Botev,
//!   L'Ecuyer and Tuffin ([`pmc`]).
//!
//! See [`engine::run`].
//!
//! ## Confidence intervals
//!
//! All intervals are **Wilson score intervals**, not the textbook normal
//! approximation: at an observed proportion of exactly 0 or 1 the normal
//! interval collapses to a point (claiming certainty after finitely many
//! samples), while the Wilson interval keeps a nonzero width of order
//! `z²/(n+z²)` until coverage is actually established. This is exactly the
//! regime that matters here, where reliabilities near 1 routinely produce
//! all-success batches.
//!
//! ## Determinism
//!
//! Sampling is deterministic per seed. Every batch RNG stream is derived
//! with [`stream_seed`], a splitmix64-style hash of `(seed, domain | index)`,
//! so streams never collide across batches or plan leaves (plain `seed + i`
//! offsets would).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod engine;
pub mod error;
pub mod pmc;
pub mod stratified;

pub use budget::{McBudget, McSentinel};
pub use engine::{
    EstimatorKind, McAccum, McCheckpoint, McOutcome, McReport, McSettings, StopTarget,
};
pub use error::McError;
pub use stratified::MAX_STRATA_LINKS;

use netgraph::{EdgeMask, Network, StateExpansion};

/// z-score of the two-sided 95% interval, matching the exact crates' docs.
pub(crate) const Z95: f64 = 1.96;

// Stream-domain tags for `stream_seed`: the high byte separates the users of
// the base seed so no two consumers can hash onto the same RNG stream. The
// values are part of every recorded result and checkpoint: changing one
// changes every sample drawn under it.
pub(crate) const STREAM_ENGINE: u64 = 6 << 56;
pub(crate) const STREAM_PLAN_LEAF: u64 = 7 << 56;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent RNG seed for stream `stream` of the base `seed`.
///
/// Splitmix64-style bit mixing: both stages are bijections, so distinct
/// streams of one seed never produce the same derived seed, unlike additive
/// `seed + i` schemes where worker `i` and batch round `r = i` collide.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// Derives the base seed for the Monte-Carlo estimator placed at plan-leaf
/// slot `slot` of a hybrid decomposition run with base seed `seed`.
///
/// Each sampled leaf gets its own stream *domain* (keyed by the leaf's DFS
/// slot index) before the engine fans that domain out into its per-run
/// crude/worker/batch streams. Without this extra level, two sampled leaves
/// of one plan would feed the identical base seed into the engine and draw
/// the *same* sample sequence — perfectly correlated leaves whose combined
/// interval is invalid.
pub fn plan_leaf_seed(seed: u64, slot: u64) -> u64 {
    stream_seed(seed, STREAM_PLAN_LEAF | (slot & 0x00FF_FFFF_FFFF_FFFF))
}

/// The Wilson score interval `(lo, hi)` for an observed proportion `mean`
/// over an (effective) sample size `n`, clamped to `[0, 1]`.
///
/// Unlike the normal approximation, the interval has nonzero width for every
/// finite `n`, even at `mean` 0 or 1 where it spans about `z²/(n+z²)` from
/// the boundary. `n` may be fractional: variance-reduced estimators pass the
/// effective sample size `mean(1−mean)/se²`.
pub fn wilson_interval(mean: f64, n: f64, z: f64) -> (f64, f64) {
    if n.is_nan() || n <= 0.0 || !mean.is_finite() {
        return (0.0, 1.0);
    }
    let mean = mean.clamp(0.0, 1.0);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (mean + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (mean * (1.0 - mean) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Unclamped Wilson half-width: the stopping statistic of the sequential
/// rules. Strictly positive for every finite `n`.
pub(crate) fn wilson_half(mean: f64, n: f64, z: f64) -> f64 {
    if n.is_nan() || n <= 0.0 || !mean.is_finite() {
        return f64::INFINITY;
    }
    let mean = mean.clamp(0.0, 1.0);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    (z / denom) * (mean * (1.0 - mean) / n + z2 / (4.0 * n * n)).sqrt()
}

/// Effective sample size backing a `(mean, std_error)` pair: the number of
/// Bernoulli samples whose binomial error would equal the measured one,
/// floored at the actual count so a noisy variance estimate can never claim
/// an interval narrower than plain sampling's... wider, rather: the floor
/// keeps variance-reduced estimators from *widening* past the plain Wilson
/// interval, which is a valid 95% interval for any `[0,1]`-valued estimator
/// because `Var(X) ≤ E[X](1−E[X])` for `X ∈ [0,1]`.
pub(crate) fn effective_n(mean: f64, samples: u64, std_error: f64) -> f64 {
    let binom_var = mean.clamp(0.0, 1.0) * (1.0 - mean.clamp(0.0, 1.0));
    if std_error > 0.0 && binom_var > 0.0 {
        (binom_var / (std_error * std_error)).max(samples as f64)
    } else {
        samples as f64
    }
}

/// Checks the network fits in a sampling mask and carries no capacity
/// spectra.
///
/// The binary samplers interpret a link's `fail_prob` as a two-point
/// distribution; silently running them on a multi-state network would
/// estimate the wrong model. The engine's crude and permutation estimators
/// support multi-state networks by sampling over the tranche expansion
/// instead (and call this check on the expanded, spectrum-free network).
pub(crate) fn check_edges(net: &Network) -> Result<usize, McError> {
    if net.has_multistate() {
        return Err(McError::MultiState {
            operation: "binary up/down sampling",
        });
    }
    let m = net.edge_count();
    if m > EdgeMask::MAX_EDGES {
        return Err(McError::TooManyEdges {
            count: m,
            max: EdgeMask::MAX_EDGES,
        });
    }
    Ok(m)
}

/// Builds the tranche expansion of a multi-state network for sampling,
/// mapping the expansion-size failure onto the sampling-mask error.
pub(crate) fn expand_multistate(net: &Network) -> Result<StateExpansion, McError> {
    StateExpansion::build(net).map_err(|e| match e {
        netgraph::GraphError::ExpansionTooLarge { arcs, max } => {
            McError::TooManyEdges { count: arcs, max }
        }
        other => McError::BadParameter {
            what: "network",
            reason: other.to_string(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_do_not_collide() {
        // additive `seed + i` schemes let batch `i` of one seed replay batch
        // 0 of seed `i`; hash-derived streams are distinct across seeds,
        // domains and indices
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for i in 0..1000u64 {
                assert!(seen.insert(stream_seed(seed, STREAM_ENGINE | i)));
            }
        }
        // and deterministic
        assert_eq!(
            stream_seed(7, STREAM_ENGINE | 3),
            stream_seed(7, STREAM_ENGINE | 3)
        );
    }

    #[test]
    fn plan_leaf_seeds_are_distinct_per_slot_and_from_engine_domains() {
        let mut seen = std::collections::HashSet::new();
        for slot in 0..1000u64 {
            assert!(seen.insert(plan_leaf_seed(42, slot)));
            // a leaf's base seed never collides with the engine-internal
            // batch streams the same base seed fans out into
            assert!(seen.insert(stream_seed(42, STREAM_ENGINE | slot)));
        }
        assert_eq!(plan_leaf_seed(7, 3), plan_leaf_seed(7, 3));
    }

    #[test]
    fn wilson_interval_properties() {
        // nonzero width at the extremes
        let (lo, hi) = wilson_interval(1.0, 4096.0, Z95);
        assert!(hi - lo > 0.0 && hi == 1.0 && lo < 1.0);
        let (lo0, hi0) = wilson_interval(0.0, 4096.0, Z95);
        assert!(hi0 - lo0 > 0.0 && lo0 == 0.0 && hi0 > 0.0);
        // symmetric counterparts mirror
        assert!((hi0 - (1.0 - lo)).abs() < 1e-12);
        // width shrinks with n
        assert!(
            wilson_half(1.0, 10_000.0, Z95) < wilson_half(1.0, 100.0, Z95),
            "half-width must shrink with n"
        );
        // degenerate n
        assert_eq!(wilson_interval(0.5, 0.0, Z95), (0.0, 1.0));
    }
}
