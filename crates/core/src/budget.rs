//! Work and time budgets for the anytime sweep engine.
//!
//! Every exact path in this crate is exponential, so a slightly-too-large
//! instance either trips a size bound up front or runs unboundedly. A
//! [`Budget`] turns that cliff into graceful degradation: the sweep engine
//! ([`crate::sweep`]) polls the budget between small batches of
//! configurations and, when the wall-clock deadline passes, the
//! configuration allowance runs out, or the cooperative [`CancelToken`] is
//! tripped (e.g. from a Ctrl-C handler), it stops at a clean cursor and
//! reports a rigorous partial result instead of an answer-or-nothing.
//!
//! The budget is *shared* across everything one calculation does: parallel
//! workers and both sides of a bottleneck decomposition draw configuration
//! grants from the same allowance, so "at most N configurations" means N in
//! total, not N per worker.
//!
//! Sentinels form a *hierarchy*: [`BudgetSentinel::child`] carves a share of
//! the remaining allowance out of a parent into a sentinel with its own
//! atomics, so independent plan subtrees poll disjoint cache lines instead
//! of contending on one global counter. A starved child pulls chunked
//! refills from its ancestors (so allowance released by an early-finishing
//! sibling is rebalanced to the subtrees still running), and
//! [`BudgetSentinel::release`] returns whatever a finished subtree did not
//! spend.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag, cheap to clone and poll.
///
/// Tripping the token is sticky: once tripped it stays tripped. Polling is a
/// single relaxed atomic load, safe to do from signal handlers and hot loops.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent and async-signal-safe (a single
    /// atomic store).
    pub fn trip(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_tripped(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The shared atomic behind the token, for wiring into subsystems that
    /// take a bare flag (e.g. [`montecarlo::McBudget`]). Tripping the token
    /// and storing `true` into the flag are the same operation.
    pub fn as_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }
}

/// Resource limits for one reliability calculation. The default is
/// unlimited — identical behavior to the pre-anytime engine.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock limit, measured from [`Budget::start`].
    pub time_limit: Option<Duration>,
    /// Maximum number of checks (configuration × lane questions, answered
    /// by a certificate or the solver) to make, summed over all workers and
    /// both decomposition sides. A side sweep that closes a subcube is
    /// charged the checks that closed it, not the configurations it covers.
    pub max_configs: Option<u64>,
    /// Cooperative cancellation (e.g. tripped by a Ctrl-C handler).
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when no limit of any kind is set.
    pub fn is_unlimited(&self) -> bool {
        self.time_limit.is_none() && self.max_configs.is_none() && self.cancel.is_none()
    }

    /// Arms the budget for one run: the deadline clock starts now.
    pub fn start(&self) -> BudgetSentinel {
        BudgetSentinel {
            core: Arc::new(Core {
                deadline: self.time_limit.map(|d| Instant::now() + d),
                cancel: self.cancel.clone(),
                trivial: self.is_unlimited(),
                limited: self.max_configs.is_some(),
                limit: AtomicU64::new(self.max_configs.unwrap_or(u64::MAX)),
                used: AtomicU64::new(0),
                parent: None,
            }),
        }
    }
}

/// When a child's local allowance runs dry it pulls at least this many
/// configurations from its ancestors in one refill, so rebalancing costs one
/// ancestor round-trip per ~thousand configurations instead of one per batch.
const REFILL: u64 = 1024;

/// Shared accounting state of one sentinel in the hierarchy. `limit` and
/// `used` both only grow (a refill raises `limit`); the spendable allowance
/// is `limit − used`.
#[derive(Debug)]
struct Core {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// No limit of any kind: every grant is free and children share this core.
    trivial: bool,
    /// Whether a configuration allowance is being tracked at all.
    limited: bool,
    limit: AtomicU64,
    used: AtomicU64,
    parent: Option<Arc<Core>>,
}

impl Core {
    /// Takes up to `want` configurations, pulling chunked refills from the
    /// ancestor chain when the local allowance is dry. Returns how many were
    /// actually debited (0 when the whole chain is exhausted).
    fn take_upto(&self, want: u64) -> u64 {
        let mut taken = 0u64;
        while taken < want {
            let used = self.used.load(Ordering::Relaxed);
            let limit = self.limit.load(Ordering::Relaxed);
            if used < limit {
                let got = (want - taken).min(limit - used);
                if self
                    .used
                    .compare_exchange_weak(used, used + got, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    taken += got;
                }
                continue; // CAS race: retry with fresh counters
            }
            let Some(parent) = &self.parent else {
                break;
            };
            let refill = parent.take_upto((want - taken).max(REFILL));
            if refill == 0 {
                break;
            }
            self.limit.fetch_add(refill, Ordering::Relaxed);
        }
        taken
    }

    /// Current spendable allowance (saturating; racy but only read at fork
    /// points where the subtree is quiescent).
    fn avail(&self) -> u64 {
        let limit = self.limit.load(Ordering::Relaxed);
        let used = self.used.load(Ordering::Relaxed);
        limit.saturating_sub(used)
    }
}

/// The armed form of a [`Budget`], shared by reference across the workers of
/// one calculation (or one plan subtree — see [`BudgetSentinel::child`]).
#[derive(Debug)]
pub struct BudgetSentinel {
    core: Arc<Core>,
}

impl BudgetSentinel {
    /// An always-granting sentinel (for the non-anytime entry points).
    pub fn unlimited() -> Self {
        Budget::unlimited().start()
    }

    /// True when this sentinel can never interrupt (no limit of any kind was
    /// set). The sweep engine uses this to skip the explored-mass bookkeeping
    /// that only a partial result would need.
    pub fn is_unlimited(&self) -> bool {
        self.core.trivial
    }

    /// Whether a stop has been requested by time or cancellation (the
    /// configuration allowance is handled by [`BudgetSentinel::grant`]).
    pub fn interrupted(&self) -> bool {
        if self.core.trivial {
            return false;
        }
        if let Some(c) = &self.core.cancel {
            if c.is_tripped() {
                return true;
            }
        }
        if let Some(d) = self.core.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }

    /// Requests permission to examine up to `max_units` batches of `unit`
    /// configurations each; returns how many whole batches are granted
    /// (possibly 0). Grants are debited exactly from the shared allowance
    /// (the sum of all grants never exceeds `max_configs`), except that
    /// while any allowance remains the grant is at least one batch, even
    /// when `unit` exceeds the leftover — otherwise a caller whose batch
    /// unit is larger than a small `max_configs` (e.g. a side sweep
    /// charging one unit per live assignment) could be refused forever and
    /// a resume loop would spin without progress.
    pub fn grant(&self, unit: u64, max_units: u64) -> u64 {
        if self.core.trivial {
            return max_units;
        }
        if max_units == 0 || self.interrupted() {
            return 0;
        }
        if !self.core.limited {
            return max_units;
        }
        debug_assert!(unit > 0);
        let got = self.core.take_upto(max_units.saturating_mul(unit));
        if got == 0 {
            0
        } else {
            (got / unit).max(1)
        }
    }

    /// Configurations debited from this sentinel so far. For a parent with
    /// forked children this includes shares handed to the children; a
    /// child's [`release`](Self::release) returns its unspent part, so after
    /// every subtree finishes the root's `used()` equals the configurations
    /// actually charged.
    pub fn used(&self) -> u64 {
        if !self.core.limited {
            return 0;
        }
        self.core.used.load(Ordering::Relaxed)
    }

    /// Forks a child sentinel holding `share` configurations debited from
    /// this sentinel's allowance up front (clamped to what remains). The
    /// child polls its own atomics — no contention with siblings on the hot
    /// path — and pulls chunked refills from this sentinel only when its
    /// share runs dry, so allowance released by finished siblings flows to
    /// the subtrees still running. When no configuration allowance is
    /// tracked the child shares this sentinel's state (zero overhead).
    pub fn child(&self, share: u64) -> BudgetSentinel {
        if !self.core.limited {
            return BudgetSentinel {
                core: Arc::clone(&self.core),
            };
        }
        let granted = self.core.take_upto(share);
        BudgetSentinel {
            core: Arc::new(Core {
                deadline: self.core.deadline,
                cancel: self.core.cancel.clone(),
                trivial: false,
                limited: true,
                limit: AtomicU64::new(granted),
                used: AtomicU64::new(0),
                parent: Some(Arc::clone(&self.core)),
            }),
        }
    }

    /// Returns this child's unspent allowance to its parent and pins the
    /// child's limit to what it used, so the rebalanced configurations can
    /// only be granted once. Call after the subtree served by this sentinel
    /// has finished (no concurrent users); a no-op for the root and for
    /// untracked sentinels.
    pub fn release(&self) {
        if !self.core.limited {
            return;
        }
        let Some(parent) = &self.core.parent else {
            return;
        };
        let used = self.core.used.load(Ordering::Relaxed);
        let limit = self.core.limit.load(Ordering::Relaxed);
        let unspent = limit.saturating_sub(used);
        if unspent > 0 {
            self.core.limit.store(used, Ordering::Relaxed);
            parent.used.fetch_sub(unspent, Ordering::Relaxed);
        }
    }

    /// Current spendable configurations (`u64::MAX`-ish when untracked);
    /// meaningful at fork points where the subtree is quiescent.
    pub fn remaining(&self) -> u64 {
        if !self.core.limited {
            return u64::MAX;
        }
        self.core.avail()
    }

    /// Wall-clock time left until this sentinel's deadline, saturating at
    /// zero once the deadline has passed; `None` when the run has no time
    /// limit. Lets a leaf hand its remaining lease to a nested engine (the
    /// hybrid planner's Monte-Carlo leaves) as that engine's own time limit.
    pub fn time_left(&self) -> Option<Duration> {
        self.core
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// True when a configuration allowance is tracked at all. Distinguishes
    /// an untracked sentinel from a tracked one whose limit merely happens
    /// to be enormous — [`remaining`](Self::remaining) alone cannot tell
    /// `max_configs: Some(u64::MAX)` apart from `None`, and fork points must
    /// only apportion shares when shares are actually debited.
    pub fn tracks_configs(&self) -> bool {
        self.core.limited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_grants() {
        let s = BudgetSentinel::unlimited();
        assert_eq!(s.grant(1, 1 << 40), 1 << 40);
        assert!(!s.interrupted());
    }

    #[test]
    fn max_configs_is_a_shared_allowance() {
        let b = Budget {
            max_configs: Some(100),
            ..Default::default()
        };
        let s = b.start();
        assert_eq!(s.grant(1, 64), 64);
        assert_eq!(s.grant(1, 64), 36, "partial grant up to the allowance");
        assert_eq!(s.grant(1, 64), 0, "exhausted");
    }

    #[test]
    fn grants_are_whole_batches() {
        let b = Budget {
            max_configs: Some(10),
            ..Default::default()
        };
        let s = b.start();
        // unit 3: only 3 whole batches (9 configs) fit in 10
        assert_eq!(s.grant(3, 5), 3);
        assert_eq!(s.grant(3, 5), 0);
    }

    #[test]
    fn tiny_allowance_still_grants_one_batch() {
        let b = Budget {
            max_configs: Some(3),
            ..Default::default()
        };
        let s = b.start();
        assert_eq!(
            s.grant(4, 8),
            1,
            "a unit larger than the allowance must still make progress"
        );
        assert_eq!(s.grant(4, 8), 0, "the overshooting batch exhausts it");
    }

    #[test]
    fn cancel_token_trips_once_and_stays() {
        let t = CancelToken::new();
        let b = Budget {
            cancel: Some(t.clone()),
            ..Default::default()
        };
        let s = b.start();
        assert!(!s.interrupted());
        assert_eq!(s.grant(1, 8), 8);
        t.trip();
        assert!(s.interrupted());
        assert_eq!(s.grant(1, 8), 0);
        assert!(t.is_tripped());
    }

    #[test]
    fn deadline_in_the_past_stops_immediately() {
        let b = Budget {
            time_limit: Some(Duration::from_secs(0)),
            ..Default::default()
        };
        let s = b.start();
        assert!(s.interrupted());
        assert_eq!(s.grant(1, 8), 0);
    }

    #[test]
    fn children_hold_disjoint_shares() {
        let b = Budget {
            max_configs: Some(100),
            ..Default::default()
        };
        let root = b.start();
        let left = root.child(60);
        let right = root.child(40);
        assert_eq!(root.remaining(), 0, "shares debit the parent up front");
        assert_eq!(left.grant(1, 1000), 60, "left is capped at its share");
        assert_eq!(right.grant(1, 1000), 40);
        assert_eq!(left.grant(1, 8), 0);
        assert_eq!(right.grant(1, 8), 0);
    }

    #[test]
    fn release_rebalances_to_the_sibling_still_running() {
        let b = Budget {
            max_configs: Some(100),
            ..Default::default()
        };
        let root = b.start();
        let left = root.child(60);
        let right = root.child(40);
        assert_eq!(left.grant(1, 10), 10, "left spends 10 of its 60");
        left.release();
        assert_eq!(root.remaining(), 50, "unspent share flows back");
        // right's own 40 plus a refill pulled from the released 50
        assert_eq!(right.grant(1, 90), 90);
        assert_eq!(root.used(), 100);
        assert_eq!(right.grant(1, 8), 0, "everything is spent");
    }

    #[test]
    fn a_zero_share_child_still_refills_from_its_parent() {
        let b = Budget {
            max_configs: Some(7),
            ..Default::default()
        };
        let root = b.start();
        let child = root.child(0);
        assert_eq!(child.grant(1, 5), 5, "refill pulls from the parent");
        assert_eq!(child.grant(1, 5), 2);
        assert_eq!(child.grant(1, 5), 0);
    }

    #[test]
    fn untracked_children_share_state_and_honor_cancel() {
        let t = CancelToken::new();
        let b = Budget {
            cancel: Some(t.clone()),
            ..Default::default()
        };
        let root = b.start();
        let child = root.child(1 << 20);
        assert_eq!(child.grant(1, 8), 8, "no config limit: grants pass through");
        t.trip();
        assert!(child.interrupted(), "children see the shared cancel token");
        assert_eq!(child.grant(1, 8), 0);
        child.release(); // no-op, must not panic
    }

    #[test]
    fn grandchildren_refill_through_the_chain() {
        let b = Budget {
            max_configs: Some(64),
            ..Default::default()
        };
        let root = b.start();
        let mid = root.child(16);
        let leaf = mid.child(4);
        assert_eq!(leaf.grant(1, 64), 64, "refills climb mid and root");
        assert_eq!(leaf.grant(1, 1), 0);
        leaf.release();
        mid.release();
        assert_eq!(root.used(), 64);
    }
}
