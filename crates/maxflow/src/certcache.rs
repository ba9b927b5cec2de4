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
//!
//! ## Front-first order
//!
//! [`CertCache::classify`] tests the *front* certificate (slot 0) of the kind
//! that hit last, then the front of the other kind, and only then scans the
//! rest of each list, last-hit kind first. A hit moves to the front of its
//! list and becomes the kind tried first. Each cut gets its cheapest exact
//! test when it is recorded: when every crossing link alone carries the
//! cut's need, the cut refutes exactly the configurations with no crossing
//! link alive; when every crossing link has unit capacity, a popcount
//! decides; otherwise the alive crossing capacities are summed.
//!
//! Certificates made by a solver never contradict each other: for a support
//! `S` and a cut `(C, N)`, `cap(S ∩ C) ≥ N`, because the witnessed flow
//! carries the demand across `C` on edges of `S`. So no configuration is
//! covered by certificates of both kinds, and the order in which the kinds
//! are tried changes only cost: front-first finds the certificate that a
//! whole-list-then-other-list scan finds, and leaves the same list order and
//! kind flag. [`contradiction`] finds a pair that breaks the rule, so a
//! resumed sweep can refuse certificates no solver made.
//!
//! ## Block runs
//!
//! The sweep walks visit configurations in aligned blocks of 64 whose six
//! low links run through a fixed order (plain counting, or a reflected Gray
//! code) above links that stay put ([`Block`]). Over such a block, the
//! positions a support covers, as a 64-bit mask, come from one lookup in a
//! superset table, and those a cut refutes from a few mask operations per
//! low link it crosses. [`CertCache::run`] answers a run of consecutive
//! positions each covered by exactly one of the two front certificates
//! (cuts whose low links must carry more than 8 have no mask and go through
//! `classify`). Each of those positions would be a slot-0 hit in `classify`,
//! which swaps a slot with itself, records nothing and calls no solver; so
//! the run leaves both lists as they are and sets the kind flag to the kind
//! of its last position — the state the per-configuration calls reach. A
//! front's mask, or its lack of one, is kept until the front or the block
//! changes. A position no single front decides goes on to the rest of the
//! lists, as in `classify`.

/// Certificates a cache retains per kind: the size every sweep worker (and,
/// for side sweeps, every assignment) and every Monte-Carlo batch uses.
/// Sweep checkpoints carry up to `4 ×` this many per lane.
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

/// Total capacity of the edges in `bits`; edges past `caps` count as 0.
fn capacity(bits: u64, caps: &[u64]) -> u64 {
    let mut rest = bits;
    let mut total = 0u64;
    while rest != 0 {
        let e = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        total = total.saturating_add(caps.get(e).copied().unwrap_or(0));
    }
    total
}

/// The first support and cut in `certs` that contradict each other — a
/// support `S` and a cut `(C, N)` with `cap(S ∩ C) < N`, so the
/// configuration `S` would be both feasible and infeasible — as
/// `(support, crossing, needed)`. No solver makes such a pair (see the
/// module docs); `caps[i]` is the capacity of edge `i`. Tests every support
/// against every cut, so callers bound the list's length.
pub fn contradiction(certs: &[SolveCert], caps: &[u64]) -> Option<(u64, u64, u64)> {
    certs.iter().find_map(|s| {
        let &SolveCert::Feasible { support } = s else {
            return None;
        };
        certs.iter().find_map(|c| match *c {
            SolveCert::Infeasible { crossing, needed }
                if capacity(support & crossing, caps) < needed =>
            {
                Some((support, crossing, needed))
            }
            _ => None,
        })
    })
}

/// The order in which a walk visits the six low links of a [`Block`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockOrder {
    /// Position `q` sets the low links of the bits of `q`.
    Counting,
    /// Position `q` sets the low links of the bits of the reflected Gray
    /// code `q ^ (q >> 1) ^ (parity << 5)`: a binary Gray walk's low six
    /// code bits over a 64-aligned block, `parity` being bit 6 of the
    /// block's first index.
    Gray {
        /// Whether the block's first index has bit 6 set.
        parity: bool,
    },
}

impl BlockOrder {
    fn index(self) -> usize {
        match self {
            BlockOrder::Counting => 0,
            BlockOrder::Gray { parity } => 1 + usize::from(parity),
        }
    }
}

/// Low-link code at block position `q` under the order with index `order`.
const fn code(order: usize, q: usize) -> usize {
    if order == 0 {
        q
    } else {
        q ^ (q >> 1) ^ ((order - 1) << 5)
    }
}

/// `SUPERSET[o][need]`: the block positions whose code under the order
/// with index `o` contains every bit of `need`. Its entries at `1 << j` are
/// the positions that set low link `j`.
static SUPERSET: [[u64; 64]; 3] = {
    let mut t = [[0u64; 64]; 3];
    let mut o = 0;
    while o < 3 {
        let mut q = 0;
        while q < 64 {
            let v = code(o, q);
            let mut need = 0;
            while need < 64 {
                if v & need == need {
                    t[o][need] |= 1 << q;
                }
                need += 1;
            }
            q += 1;
        }
        o += 1;
    }
    t
};

/// Cuts whose low links must carry more than this get no block mask.
const MAX_LOW_NEED: u64 = 8;

/// The 64 configurations of one aligned block of a sweep walk. Position `q`
/// has the `base` links alive, plus low link `j` for each bit `j` of the
/// order's code at `q`.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    id: u64,
    base: u64,
    low: [u8; 6],
    low_mask: u64,
    order: usize,
}

impl Block {
    /// Block `id` of a walk: blocks of one walk with equal `id` must be
    /// equal. `low[j] < 64` is the edge of low link `j`; `base` holds the
    /// edges alive at every position (its low-link bits are ignored).
    #[inline]
    pub fn new(id: u64, base: u64, low: [u8; 6], order: BlockOrder) -> Block {
        let low_mask = low.iter().fold(0u64, |m, &e| m | 1 << e);
        Block {
            id,
            base: base & !low_mask,
            low,
            low_mask,
            order: order.index(),
        }
    }

    /// The edge bits of position `q < 64`.
    pub fn config(&self, q: u32) -> u64 {
        let v = code(self.order, q as usize & 63);
        self.low
            .iter()
            .enumerate()
            .filter(|&(j, _)| v >> j & 1 == 1)
            .fold(self.base, |b, (_, &e)| b | 1 << e)
    }

    /// Positions the support `s` covers.
    #[inline]
    fn support_mask(&self, s: u64) -> u64 {
        if s & !self.low_mask & !self.base != 0 {
            return 0;
        }
        let need = self
            .low
            .iter()
            .enumerate()
            .fold(0, |v, (j, &e)| v | ((s >> e) as usize & 1) << j);
        SUPERSET[self.order][need]
    }

    /// Positions the cut `(c, n)` refutes, with edge capacities `caps`.
    /// `None` when the cut's low links must carry more than
    /// [`MAX_LOW_NEED`] and can.
    #[inline]
    fn cut_mask(&self, c: u64, n: u64, caps: &[u64]) -> Option<u64> {
        let fixed = capacity(self.base & c, caps);
        if fixed >= n {
            return Some(0);
        }
        let need = n - fixed;
        if need > capacity(self.low_mask & c, caps) {
            return Some(!0);
        }
        if need > MAX_LOW_NEED {
            return None;
        }
        // by_sum[s]: the positions whose low links in the cut carry s < need
        let mut by_sum = [0u64; MAX_LOW_NEED as usize];
        by_sum[0] = !0;
        for (j, &e) in self.low.iter().enumerate() {
            if c >> e & 1 == 0 {
                continue;
            }
            let w = caps[e as usize];
            let set = SUPERSET[self.order][1 << j];
            for s in (0..need as usize).rev() {
                let from = s.checked_sub(usize::try_from(w).unwrap_or(usize::MAX));
                let up = from.map_or(0, |f| by_sum[f] & set);
                by_sum[s] = by_sum[s] & !set | up;
            }
        }
        Some(by_sum[..need as usize].iter().fold(0, |m, &x| m | x))
    }
}

/// How a stored cut certificate refutes a configuration, chosen once when
/// it is recorded.
#[derive(Clone, Copy, Debug)]
enum CutTest {
    /// Every crossing link alone carries `needed`: the cut refutes exactly
    /// the configurations with no crossing link alive.
    NoneAlive,
    /// Every crossing link has unit capacity: count the alive ones.
    Count,
    /// Sum the alive crossing links' capacities.
    Sum,
}

/// A stored cut certificate.
#[derive(Clone, Copy, Debug)]
struct Cut {
    crossing: u64,
    needed: u64,
    test: CutTest,
}

/// A front certificate's coverage of one block; `None` when it has no
/// block mask.
#[derive(Clone, Copy, Debug)]
struct FrontMask {
    block: u64,
    cert: (u64, u64),
    mask: Option<u64>,
}

/// Bounded store of monotonicity certificates with pseudo-LRU behavior:
/// hits are swapped toward the front, insertions overwrite round-robin once
/// the per-kind capacity is reached.
#[derive(Clone, Debug)]
pub struct CertCache {
    feasible: Vec<u64>,
    infeasible: Vec<Cut>,
    cap: usize,
    next_feasible: usize,
    next_infeasible: usize,
    /// Try the infeasible certificates first. Adaptive: set to whichever
    /// kind hit last, so a sweep dominated by one verdict (e.g. the mostly
    /// infeasible tail of a tight instance) pays one test per config
    /// instead of trying the other kind's front first.
    infeasible_first: bool,
    /// `caps[i]` is the capacity of edge `i`.
    caps: Vec<u64>,
    /// The last block masks of the feasible and the infeasible front.
    fronts: [Option<FrontMask>; 2],
}

impl CertCache {
    /// A cache holding up to `cap` certificates of each kind, for
    /// configurations of edges whose capacities are `caps`.
    pub fn new(cap: usize, caps: &[u64]) -> Self {
        let cap = cap.max(1);
        CertCache {
            feasible: Vec::with_capacity(cap.min(64)),
            infeasible: Vec::with_capacity(cap.min(64)),
            cap,
            next_feasible: 0,
            next_infeasible: 0,
            infeasible_first: false,
            caps: caps.to_vec(),
            fronts: [None; 2],
        }
    }

    /// Classifies configuration `bits`: `Some(true)` feasible, `Some(false)`
    /// infeasible, `None` unknown (the solver must run). Tries the two front
    /// certificates, last-hit kind first, before the rest of either list.
    ///
    /// Runs once per configuration of every sweep. Called from other crates,
    /// a plain `#[inline]` let the compiler keep it out of line in the side
    /// sweeps, which then cost about 5% more per configuration (measured on
    /// a 2-core x86-64 host).
    #[inline(always)]
    pub fn classify(&mut self, bits: u64) -> Option<bool> {
        let first = self.infeasible_first;
        if self.front_covers(first, bits) {
            return Some(!first);
        }
        if self.front_covers(!first, bits) {
            self.infeasible_first = !first;
            return Some(first);
        }
        self.scan(first, bits).or_else(|| self.scan(!first, bits))
    }

    /// Whether the front certificate of the infeasible (`true`) or feasible
    /// kind covers `bits`.
    #[inline(always)]
    fn front_covers(&self, infeasible: bool, bits: u64) -> bool {
        if infeasible {
            self.infeasible
                .first()
                .is_some_and(|cut| self.refutes(cut, bits))
        } else {
            self.feasible.first().is_some_and(|&s| s & !bits == 0)
        }
    }

    /// Whether `cut` refutes `bits`.
    #[inline]
    fn refutes(&self, cut: &Cut, bits: u64) -> bool {
        let alive = bits & cut.crossing;
        match cut.test {
            CutTest::NoneAlive => alive == 0,
            CutTest::Count => u64::from(alive.count_ones()) < cut.needed,
            CutTest::Sum => {
                let (mut alive, mut capacity) = (alive, 0u64);
                while alive != 0 && capacity < cut.needed {
                    let e = alive.trailing_zeros() as usize;
                    alive &= alive - 1;
                    capacity += self.caps[e];
                }
                capacity < cut.needed
            }
        }
    }

    /// The cut `(crossing, needed)` with the cheapest exact test for it.
    /// Links past `caps` are never alive, so they do not count.
    fn cut(&self, crossing: u64, needed: u64) -> Cut {
        let (mut rest, mut min, mut unit) = (crossing, u64::MAX, true);
        while rest != 0 {
            let e = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if let Some(&c) = self.caps.get(e) {
                min = min.min(c);
                unit &= c == 1;
            }
        }
        let test = if (1..=min).contains(&needed) {
            CutTest::NoneAlive
        } else if unit {
            CutTest::Count
        } else {
            CutTest::Sum
        };
        Cut {
            crossing,
            needed,
            test,
        }
    }

    /// Scans one kind's list past its front; a hit moves to the front and
    /// that kind is tried first from then on.
    #[inline]
    fn scan(&mut self, infeasible: bool, bits: u64) -> Option<bool> {
        let hit = if infeasible {
            (1..self.infeasible.len()).find(|&i| self.refutes(&self.infeasible[i], bits))
        } else {
            (1..self.feasible.len()).find(|&i| self.feasible[i] & !bits == 0)
        }?;
        if infeasible {
            self.infeasible.swap(0, hit);
        } else {
            self.feasible.swap(0, hit);
        }
        self.infeasible_first = infeasible;
        Some(!infeasible)
    }

    /// Answers positions `q..q + len` of `block` (`len ≥ 1`, `q + len ≤ 64`)
    /// as that many [`classify`](Self::classify) calls would; `bits` is
    /// position `q`'s configuration. Returns `Some((k, feasible))` for the
    /// first `k ≥ 1` positions — bit `j` of `feasible` is set iff position
    /// `q + j` is feasible — or `None` when position `q` is unknown (the
    /// solver must run). A run longer than one needs every position covered
    /// by exactly one front certificate.
    #[inline]
    pub fn run(&mut self, block: &Block, q: u32, len: u32, bits: u64) -> Option<(u32, u64)> {
        debug_assert!(len >= 1 && q + len <= 64, "positions {q}..{q}+{len}");
        let (Some(infeasible), Some(feasible)) =
            (self.front_mask(true, block), self.front_mask(false, block))
        else {
            return self.classify(bits).map(|v| (1, u64::from(v)));
        };
        let k = ((feasible ^ infeasible) >> q).trailing_ones().min(len);
        if k > 0 {
            let feasible = feasible >> q & (!0 >> (64 - k));
            self.infeasible_first = feasible >> (k - 1) & 1 == 0;
            return Some((k, feasible));
        }
        let first = self.infeasible_first;
        let verdict = if feasible >> q & 1 == 1 {
            // both fronts cover `q`, which only contradictory certificates
            // do: `classify` takes the front tried first
            Some(!first)
        } else {
            self.scan(first, bits).or_else(|| self.scan(!first, bits))
        };
        verdict.map(|v| (1, u64::from(v)))
    }

    /// The positions of `block` the front certificate of the infeasible
    /// (`true`) or the feasible kind covers; `None` when that front has no
    /// block mask.
    #[inline]
    fn front_mask(&mut self, infeasible: bool, block: &Block) -> Option<u64> {
        let front = if infeasible {
            self.infeasible.first().map(|c| (c.crossing, c.needed))
        } else {
            self.feasible.first().map(|&s| (s, 0))
        };
        let Some(cert) = front else {
            return Some(0);
        };
        let memo = &mut self.fronts[usize::from(infeasible)];
        match *memo {
            Some(f) if f.block == block.id && f.cert == cert => f.mask,
            _ => {
                let mask = if infeasible {
                    block.cut_mask(cert.0, cert.1, &self.caps)
                } else {
                    Some(block.support_mask(cert.0))
                };
                *memo = Some(FrontMask {
                    block: block.id,
                    cert,
                    mask,
                });
                mask
            }
        }
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
                    .any(|c| c.crossing == crossing && c.needed >= needed)
                {
                    return;
                }
                let cut = self.cut(crossing, needed);
                if self.infeasible.len() < self.cap {
                    self.infeasible.push(cut);
                } else {
                    self.infeasible[self.next_infeasible] = cut;
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
            .chain(self.infeasible.iter().map(|c| SolveCert::Infeasible {
                crossing: c.crossing,
                needed: c.needed,
            }))
            .collect()
    }

    /// Whether the infeasible certificates are tried first: the kind of the
    /// last hit.
    pub fn infeasible_first(&self) -> bool {
        self.infeasible_first
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
        let mut c = CertCache::new(4, &UNIT_CAPS);
        c.record(SolveCert::Feasible { support: 0b0101 });
        assert_eq!(c.classify(0b0101), Some(true));
        assert_eq!(c.classify(0b1111), Some(true));
        assert_eq!(c.classify(0b0100), None, "missing support bit 0");
    }

    #[test]
    fn infeasible_certificates_match_under_provisioned_cuts_only() {
        // cut crosses unit-capacity edges {0,1}; feasibility needs both alive
        let mut c = CertCache::new(4, &UNIT_CAPS);
        c.record(SolveCert::Infeasible {
            crossing: 0b011,
            needed: 2,
        });
        assert_eq!(c.classify(0b001), Some(false));
        assert_eq!(c.classify(0b100), Some(false), "no crossing edge alive");
        assert_eq!(c.classify(0b010), Some(false), "capacity 1 < 2");
        assert_eq!(c.classify(0b011), None, "cut fully provisioned");
    }

    #[test]
    fn infeasible_certificates_sum_heterogeneous_capacities() {
        let caps = [3u64, 1, 2, 5];
        let mut c = CertCache::new(4, &caps);
        c.record(SolveCert::Infeasible {
            crossing: 0b0111,
            needed: 5,
        });
        assert_eq!(c.classify(0b0011), Some(false), "3+1 < 5");
        assert_eq!(c.classify(0b0110), Some(false), "1+2 < 5");
        assert_eq!(c.classify(0b0111), None, "3+1+2 >= 5");
        assert_eq!(c.classify(0b1001), Some(false), "edge 3 is not in the cut");
    }

    #[test]
    fn infeasible_beats_nothing_but_feasible_wins_first() {
        let mut c = CertCache::new(4, &UNIT_CAPS);
        c.record(SolveCert::Feasible { support: 0b10 });
        c.record(SolveCert::Infeasible {
            crossing: 0b01,
            needed: 1,
        });
        // the feasible front is tried first; a mask matching both kinds
        // cannot exist for *correct* certificates, so the order changes no
        // verdict — here we only check both kinds are live simultaneously
        assert_eq!(c.classify(0b10), Some(true));
        assert_eq!(c.classify(0b100), Some(false));
    }

    #[test]
    fn capacity_is_bounded_round_robin() {
        let mut c = CertCache::new(2, &UNIT_CAPS);
        c.record(SolveCert::Feasible { support: 0b001 });
        c.record(SolveCert::Feasible { support: 0b010 });
        c.record(SolveCert::Feasible { support: 0b100 }); // evicts slot 0
        assert!(c.len() <= 4);
        assert_eq!(c.classify(0b110), Some(true));
        assert_eq!(c.classify(0b001), None, "evicted");
    }

    #[test]
    fn dominated_certificates_are_skipped() {
        let mut c = CertCache::new(4, &UNIT_CAPS);
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

    #[test]
    fn fronts_are_tried_before_either_tail() {
        let mut c = CertCache::new(4, &UNIT_CAPS);
        c.record(SolveCert::Feasible { support: 0b0011 });
        c.record(SolveCert::Feasible { support: 0b0101 });
        c.record(SolveCert::Infeasible {
            crossing: 0b0110,
            needed: 1,
        });
        assert_eq!(contradiction(&c.export(), &UNIT_CAPS), None);
        // the feasible tail hits: it moves to the front, feasible stays first
        assert_eq!(c.classify(0b0101), Some(true));
        assert_eq!(c.export()[0], SolveCert::Feasible { support: 0b0101 });
        assert!(!c.infeasible_first());
        // the infeasible front hits: the flag flips, nothing moves
        assert_eq!(c.classify(0b1001), Some(false));
        assert!(c.infeasible_first());
        assert_eq!(c.export()[0], SolveCert::Feasible { support: 0b0101 });
        // only a contradictory pair shows the order: the cut's front beats
        // the feasible tail that a whole-list scan would reach first
        let mut forged = CertCache::new(4, &UNIT_CAPS);
        forged.record(SolveCert::Feasible { support: 0b0001 });
        forged.record(SolveCert::Feasible { support: 0b0010 });
        forged.record(SolveCert::Infeasible {
            crossing: 0b1000,
            needed: 1,
        });
        assert_eq!(forged.classify(0b0010), Some(false));
    }

    #[test]
    fn contradictions_need_a_support_under_a_cut() {
        let caps = [2u64, 1, 1, 1];
        let support = SolveCert::Feasible { support: 0b0011 };
        let cut = |needed| SolveCert::Infeasible {
            crossing: 0b0101,
            needed,
        };
        // the support carries 2 across the cut: a threshold of 2 is fine
        assert_eq!(contradiction(&[support, cut(2)], &caps), None);
        assert_eq!(
            contradiction(&[cut(3), support], &caps),
            Some((0b0011, 0b0101, 3))
        );
        assert_eq!(
            contradiction(&[SolveCert::Feasible { support: 0 }, cut(1)], &caps),
            Some((0, 0b0101, 1))
        );
        assert_eq!(contradiction(&[cut(9), SolveCert::None], &caps), None);
    }

    /// Reference for the tables: position `q`'s configuration, walked bit by
    /// bit.
    fn walk_config(base: u64, low: [u8; 6], order: BlockOrder, q: u64) -> u64 {
        let v = match order {
            BlockOrder::Counting => q,
            BlockOrder::Gray { parity } => q ^ (q >> 1) ^ (u64::from(parity) << 5),
        };
        (0..6)
            .filter(|&j| v >> j & 1 == 1)
            .fold(base, |b, j| b | 1 << low[j])
    }

    #[test]
    fn block_masks_match_per_position_checks() {
        let low = [9u8, 2, 7, 0, 12, 5];
        let orders = [
            BlockOrder::Counting,
            BlockOrder::Gray { parity: false },
            BlockOrder::Gray { parity: true },
        ];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for (id, order) in orders.into_iter().enumerate() {
            let block = Block::new(id as u64, next() & 0x3fff, low, order);
            for round in 0..400 {
                // unit capacities, then capacities 1–3
                let caps: Vec<u64> = (0..14)
                    .map(|_| if round % 2 == 0 { 1 } else { 1 + next() % 3 })
                    .collect();
                let s = next() & next() & 0x3fff;
                let c = next() & 0x3fff;
                let n = next() % 12;
                let cache = CertCache::new(1, &caps);
                let cut = block.cut_mask(c, n, &caps);
                for q in 0..64u32 {
                    let bits = walk_config(block.base, low, order, u64::from(q));
                    assert_eq!(block.config(q), bits);
                    let covered = s & !bits == 0;
                    assert_eq!(block.support_mask(s) >> q & 1 == 1, covered);
                    let refuted = capacity(bits & c, &caps) < n;
                    assert_eq!(cache.refutes(&cache.cut(c, n), bits), refuted);
                    if let Some(cut) = cut {
                        assert_eq!(cut >> q & 1 == 1, refuted);
                    }
                }
            }
        }
    }
}
