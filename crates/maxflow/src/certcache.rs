//! Monotonicity certificates: solver verdicts that classify other
//! configurations without solving again.
//!
//! Flow feasibility is monotone in the set of alive links, so every solver
//! verdict generalizes beyond the configuration that produced it:
//!
//! * a **feasible** solve yields the *support* of the routed flow (the edges
//!   carrying nonzero flow); every configuration whose alive set contains the
//!   support is feasible;
//! * an **infeasible** (exhausted) solve yields a saturated s–t cut with
//!   crossing-edge set `C`; flow is bounded by the capacity of any cut, so
//!   *every* configuration whose alive edges in `C` have total capacity
//!   below the cut's residual requirement (the demanded flow minus the cut's
//!   unfailable super-terminal capacity) is infeasible — one witnessed cut
//!   instantly classifies every configuration that under-provisions it.
//!
//! [`NetworkFlow::certificate`](crate::NetworkFlow::certificate) reads either
//! kind off the residual graph of a just-finished solve. [`CertCache`] keeps a
//! bounded working set of both kinds and answers membership in a few word
//! operations per entry. The exact configuration sweeps and the Monte-Carlo
//! samplers consult it before every max-flow, skipping the solver for the
//! (large) certifiable share of the configurations they visit. All checks are
//! exact — a cache hit returns the same verdict the solver would.

/// Certificates a cache retains per kind: the size every sweep worker (and,
/// for side sweeps, every assignment) and every Monte-Carlo batch uses.
/// Sweep checkpoints carry up to `4 ×` this many.
pub const CERTIFICATE_CACHE_SIZE: usize = 32;

/// What one solver call certified, if anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveCert {
    /// The configuration is feasible and any superset of `support` is too.
    Feasible {
        /// Edges carrying nonzero flow in the witness.
        support: u64,
    },
    /// The configuration is infeasible; so is any configuration whose alive
    /// edges within `crossing` have total capacity below `needed`.
    Infeasible {
        /// All edges crossing the witnessed saturated cut (s-side to t-side).
        crossing: u64,
        /// Alive crossing capacity a feasible configuration must reach: the
        /// required flow minus the cut's fixed (unfailable) capacity.
        needed: u64,
    },
    /// No certificate was extracted (extraction disabled or unavailable).
    None,
}

/// Bounded store of monotonicity certificates with pseudo-LRU behavior:
/// hits are swapped toward the front, insertions overwrite round-robin once
/// the per-kind capacity is reached.
#[derive(Clone, Debug)]
pub struct CertCache {
    feasible: Vec<u64>,
    infeasible: Vec<(u64, u64)>,
    cap: usize,
    next_feasible: usize,
    next_infeasible: usize,
    /// Scan the infeasible certificates first. Adaptive: set to whichever
    /// kind hit last, so a sweep dominated by one verdict (e.g. the mostly
    /// infeasible tail of a tight instance) pays one short scan per config
    /// instead of exhausting the other kind's list first. A correct
    /// certificate pair can never match the same configuration both ways, so
    /// the order changes cost only, never the verdict.
    infeasible_first: bool,
    /// Bitmask of unit-capacity edges, derived from the first `classify`
    /// call's `caps` (capacities never change within a cache's lifetime). A
    /// cut certificate whose crossing edges are all unit-capacity is checked
    /// with one popcount instead of the per-edge capacity-sum walk.
    unit_caps: Option<u64>,
}

impl CertCache {
    /// A cache holding up to `cap` certificates of each kind.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        CertCache {
            feasible: Vec::with_capacity(cap.min(64)),
            infeasible: Vec::with_capacity(cap.min(64)),
            cap,
            next_feasible: 0,
            next_infeasible: 0,
            infeasible_first: false,
            unit_caps: None,
        }
    }

    /// Classifies configuration `bits`: `Some(true)` feasible, `Some(false)`
    /// infeasible, `None` unknown (the solver must run). `caps[i]` is the
    /// capacity of edge `i` — cut certificates refute any configuration whose
    /// alive crossing edges cannot carry the certificate's `needed` flow.
    ///
    /// Runs once per configuration of every sweep. Called from other crates,
    /// a plain `#[inline]` let the compiler keep it out of line in the side
    /// sweeps, which then cost about 5% more per configuration (measured on
    /// a 2-core x86-64 host).
    #[inline(always)]
    pub fn classify(&mut self, bits: u64, caps: &[u64]) -> Option<bool> {
        if self.infeasible_first {
            self.classify_infeasible(bits, caps)
                .or_else(|| self.classify_feasible(bits))
        } else {
            self.classify_feasible(bits)
                .or_else(|| self.classify_infeasible(bits, caps))
        }
    }

    #[inline]
    fn classify_feasible(&mut self, bits: u64) -> Option<bool> {
        for i in 0..self.feasible.len() {
            if self.feasible[i] & !bits == 0 {
                self.feasible.swap(0, i);
                self.infeasible_first = false;
                return Some(true);
            }
        }
        None
    }

    #[inline]
    fn classify_infeasible(&mut self, bits: u64, caps: &[u64]) -> Option<bool> {
        let unit = *self.unit_caps.get_or_insert_with(|| {
            caps.iter()
                .enumerate()
                .filter(|&(_, &c)| c == 1)
                .fold(0u64, |m, (i, _)| m | (1u64 << i))
        });
        for i in 0..self.infeasible.len() {
            let (crossing, needed) = self.infeasible[i];
            let refuted = if crossing & !unit == 0 {
                u64::from((bits & crossing).count_ones()) < needed
            } else {
                let mut alive = bits & crossing;
                let mut capacity = 0u64;
                while alive != 0 && capacity < needed {
                    let e = alive.trailing_zeros() as usize;
                    alive &= alive - 1;
                    capacity += caps[e];
                }
                capacity < needed
            };
            if refuted {
                self.infeasible.swap(0, i);
                self.infeasible_first = true;
                return Some(false);
            }
        }
        None
    }

    /// Records a certificate extracted from a solver call.
    #[inline]
    pub fn record(&mut self, cert: SolveCert) {
        match cert {
            SolveCert::Feasible { support } => {
                // an existing subset support already covers this one
                if self.feasible.iter().any(|&s| s & !support == 0) {
                    return;
                }
                if self.feasible.len() < self.cap {
                    self.feasible.push(support);
                } else {
                    self.feasible[self.next_feasible] = support;
                    self.next_feasible = (self.next_feasible + 1) % self.cap;
                }
            }
            SolveCert::Infeasible { crossing, needed } => {
                // an existing cert on the same cut with an equal-or-higher
                // threshold already refutes everything this one would
                if self
                    .infeasible
                    .iter()
                    .any(|&(c, n)| c == crossing && n >= needed)
                {
                    return;
                }
                if self.infeasible.len() < self.cap {
                    self.infeasible.push((crossing, needed));
                } else {
                    self.infeasible[self.next_infeasible] = (crossing, needed);
                    self.next_infeasible = (self.next_infeasible + 1) % self.cap;
                }
            }
            SolveCert::None => {}
        }
    }

    /// Exports every stored certificate, e.g. to warm-start the cache of a
    /// resumed sweep. Certificates are exact and instance-bound but
    /// advisory: dropping them only costs cold-cache solver calls.
    pub fn export(&self) -> Vec<SolveCert> {
        self.feasible
            .iter()
            .map(|&support| SolveCert::Feasible { support })
            .chain(
                self.infeasible
                    .iter()
                    .map(|&(crossing, needed)| SolveCert::Infeasible { crossing, needed }),
            )
            .collect()
    }

    /// Number of stored certificates (both kinds).
    pub fn len(&self) -> usize {
        self.feasible.len() + self.infeasible.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.feasible.is_empty() && self.infeasible.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIT_CAPS: [u64; 4] = [1, 1, 1, 1];

    #[test]
    fn feasible_certificates_match_supersets_only() {
        let mut c = CertCache::new(4);
        c.record(SolveCert::Feasible { support: 0b0101 });
        assert_eq!(c.classify(0b0101, &UNIT_CAPS), Some(true));
        assert_eq!(c.classify(0b1111, &UNIT_CAPS), Some(true));
        assert_eq!(
            c.classify(0b0100, &UNIT_CAPS),
            None,
            "missing support bit 0"
        );
    }

    #[test]
    fn infeasible_certificates_match_under_provisioned_cuts_only() {
        // cut crosses unit-capacity edges {0,1}; feasibility needs both alive
        let mut c = CertCache::new(4);
        c.record(SolveCert::Infeasible {
            crossing: 0b011,
            needed: 2,
        });
        assert_eq!(c.classify(0b001, &UNIT_CAPS), Some(false));
        assert_eq!(
            c.classify(0b100, &UNIT_CAPS),
            Some(false),
            "no crossing edge alive"
        );
        assert_eq!(c.classify(0b010, &UNIT_CAPS), Some(false), "capacity 1 < 2");
        assert_eq!(c.classify(0b011, &UNIT_CAPS), None, "cut fully provisioned");
    }

    #[test]
    fn infeasible_certificates_sum_heterogeneous_capacities() {
        let caps = [3u64, 1, 2, 5];
        let mut c = CertCache::new(4);
        c.record(SolveCert::Infeasible {
            crossing: 0b0111,
            needed: 5,
        });
        assert_eq!(c.classify(0b0011, &caps), Some(false), "3+1 < 5");
        assert_eq!(c.classify(0b0110, &caps), Some(false), "1+2 < 5");
        assert_eq!(c.classify(0b0111, &caps), None, "3+1+2 >= 5");
        assert_eq!(
            c.classify(0b1001, &caps),
            Some(false),
            "edge 3 is not in the cut"
        );
    }

    #[test]
    fn infeasible_beats_nothing_but_feasible_wins_first() {
        let mut c = CertCache::new(4);
        c.record(SolveCert::Feasible { support: 0b10 });
        c.record(SolveCert::Infeasible {
            crossing: 0b01,
            needed: 1,
        });
        // feasible list is scanned first; a mask matching both kinds cannot
        // exist for *correct* certificates, so order is a non-issue — here we
        // only check both kinds are live simultaneously
        assert_eq!(c.classify(0b10, &UNIT_CAPS), Some(true));
        assert_eq!(c.classify(0b100, &UNIT_CAPS), Some(false));
    }

    #[test]
    fn capacity_is_bounded_round_robin() {
        let mut c = CertCache::new(2);
        c.record(SolveCert::Feasible { support: 0b001 });
        c.record(SolveCert::Feasible { support: 0b010 });
        c.record(SolveCert::Feasible { support: 0b100 }); // evicts slot 0
        assert!(c.len() <= 4);
        assert_eq!(c.classify(0b110, &UNIT_CAPS), Some(true));
        assert_eq!(c.classify(0b001, &UNIT_CAPS), None, "evicted");
    }

    #[test]
    fn dominated_certificates_are_skipped() {
        let mut c = CertCache::new(4);
        c.record(SolveCert::Feasible { support: 0b001 });
        c.record(SolveCert::Feasible { support: 0b011 }); // superset: useless
        assert_eq!(c.len(), 1);
        c.record(SolveCert::Infeasible {
            crossing: 0b110,
            needed: 3,
        });
        c.record(SolveCert::Infeasible {
            crossing: 0b110,
            needed: 2,
        }); // weaker
        assert_eq!(c.len(), 2);
        c.record(SolveCert::Infeasible {
            crossing: 0b110,
            needed: 4,
        }); // stronger
        assert_eq!(c.len(), 3);
    }
}
