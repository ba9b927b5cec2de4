//! Resume checkpoints for interrupted (anytime) calculations.
//!
//! When a budgeted run stops early, the calculator packages the sweep
//! cursors, running accumulations, and advisory certificate warm-starts into
//! a [`Checkpoint`], stamped with a fingerprint of the instance it belongs
//! to. A later process can deserialize the checkpoint and continue exactly
//! where the interrupted run stopped; for serial runs the final reliability
//! is bit-identical to an uninterrupted computation.
//!
//! The on-disk form ([`Checkpoint::to_text`] / [`Checkpoint::from_text`]) is
//! a small line-oriented text format rather than a serde derive: the
//! workspace deliberately vendors no functional serialization crate, and the
//! format must round-trip `f64` accumulator state *exactly*, which the text
//! form guarantees by writing IEEE-754 bit patterns in hex. The crate stays
//! I/O-free — reading and writing files is the caller's (CLI's) job.

use maxflow::SolveCert;
use netgraph::{EdgeId, GraphKind, Network};

use crate::assign::AssignmentModel;
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::options::CalcOptions;
use crate::sweep::{LANE_CERTS, LEAF_LINKS};

/// Where an interrupted sweep stopped: the size of its index space and the
/// half-open index ranges never examined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepCursor {
    /// Total number of configurations (`2^m`).
    pub total: u64,
    /// Half-open `[lo, hi)` unexamined ranges, ascending and disjoint.
    pub remaining: Vec<(u64, u64)>,
}

impl SweepCursor {
    /// Configurations not yet examined.
    pub fn remaining_configs(&self) -> u64 {
        self.remaining.iter().map(|&(lo, hi)| hi - lo).sum()
    }

    /// Fraction of the index space already examined, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        1.0 - self.remaining_configs() as f64 / self.total as f64
    }
}

/// Checkpoint of an interrupted naive (full-enumeration) sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct NaiveCheckpoint {
    /// Enumeration cursor.
    pub cursor: SweepCursor,
    /// `(sum, compensation)` of the feasible-mass Neumaier accumulator.
    pub feasible: (f64, f64),
    /// `(sum, compensation)` of the explored-mass Neumaier accumulator.
    pub explored: (f64, f64),
    /// Advisory certificate warm-start for the resumed sweep.
    pub certs: Vec<SolveCert>,
}

/// The state of one side sweep of a bottleneck decomposition, and its
/// checkpoint when the sweep was interrupted. The masses are `f64` in every
/// checkpoint; the exact engine sweeps the same state in
/// [`exactmath::BigRational`].
#[derive(Clone, Debug, PartialEq)]
pub struct SideCheckpoint<W = f64> {
    /// Enumeration cursor over the side's configurations.
    pub cursor: SweepCursor,
    /// Indices of the assignments the side realizes with every link alive:
    /// the only ones the sweep tests.
    pub live: Vec<usize>,
    /// Partial realization-spectrum mass per assignment mask (sums to the
    /// explored probability, not to 1).
    pub mass: Vec<W>,
    /// Advisory certificate warm-start, one list per live assignment.
    pub certs: Vec<Vec<SolveCert>>,
}

/// Resume state of one leaf slot of an interrupted plan execution
/// ([`crate::plan`]), in DFS order over the plan tree.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanLeafState {
    /// The leaf was never started (budget ran out before reaching it).
    Fresh,
    /// The leaf finished; its exact contribution is recorded so a resumed
    /// run reuses it without re-sweeping.
    Done {
        /// The leaf's exact reliability.
        value: f64,
    },
    /// The leaf is an interrupted naive sweep.
    Naive(NaiveCheckpoint),
    /// The leaf is an interrupted one-level bottleneck (cut) sweep.
    Cut {
        /// Source-side sweep state.
        side_s: Box<SideCheckpoint>,
        /// Sink-side sweep state.
        side_t: Box<SideCheckpoint>,
    },
    /// The leaf is an interrupted single-side spectrum sweep (a `sweep`
    /// leaf under a recursive `DeepCut` node).
    Side(Box<SideCheckpoint>),
    /// The leaf was estimated statistically (hybrid mode) and met its
    /// stopping target: the point estimate and 95% interval are recorded so
    /// a resumed run reuses them without re-sampling. Unlike [`Done`]
    /// (certified, exact), this state taints the combined answer
    /// *statistical*.
    ///
    /// [`Done`]: PlanLeafState::Done
    McDone {
        /// The leaf's Monte-Carlo point estimate.
        mean: f64,
        /// Lower end of the leaf's 95% confidence interval.
        lo: f64,
        /// Upper end of the leaf's 95% confidence interval.
        hi: f64,
    },
    /// The leaf is an interrupted Monte-Carlo estimation (hybrid mode); the
    /// full engine state (settings, accumulator, batch cursor) resumes the
    /// sample stream bit-identically.
    MonteCarlo(Box<montecarlo::McCheckpoint>),
}

/// Checkpoint of an interrupted recursive-plan execution ([`crate::plan`]).
///
/// The plan tree itself is *not* serialized: planning is deterministic, so
/// the resuming process re-derives the tree from the network, the stored
/// root cut, and the stored planner knobs, then verifies the shape
/// fingerprint before splicing the leaf states back in.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanCheckpoint {
    /// The validated bottleneck set the root split was built on.
    pub root_cut: Vec<EdgeId>,
    /// `max_k` the planner searched recursive cuts with.
    pub root_max_k: usize,
    /// `max_depth` the plan was built with (overrides the resuming options).
    pub max_depth: usize,
    /// Whether the plan was built with `recursive_cut_sides` (overrides the
    /// resuming options, like `max_depth`, so the re-derived tree matches).
    pub recursive_cut_sides: bool,
    /// Whether the interrupted run executed in hybrid mode (overrides the
    /// resuming options, so a resume continues sampling — or not — exactly
    /// as the original run would have). Deliberately *not* part of the shape
    /// fingerprint: the plan tree is identical with the knob on or off, only
    /// leaf execution differs, mirroring the `recursive_cut_sides`-era
    /// precedent of keeping executor knobs out of [`shape`](Self::shape).
    /// Serialized as an optional line so MC-free legacy checkpoints keep
    /// their exact byte layout.
    pub hybrid: bool,
    /// Fingerprint of the plan tree's shape; a resumed run must re-derive a
    /// tree with the identical fingerprint.
    pub shape: u64,
    /// Budget share apportioned to each leaf slot's subtree when the
    /// interrupted run started (DFS slot order; bit-exact `f64`). Purely
    /// informational for resume — shares are recomputed from the remaining
    /// work — but recorded so interrupted runs can report how the budget
    /// was split.
    pub shares: Vec<f64>,
    /// Per-leaf resume state, in DFS (execution) order.
    pub leaves: Vec<PlanLeafState>,
}

/// Algorithm-specific checkpoint payload.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointKind {
    /// Interrupted naive enumeration.
    Naive(NaiveCheckpoint),
    /// Interrupted bottleneck decomposition.
    Bottleneck {
        /// The bottleneck link set the decomposition was built on.
        cut: Vec<EdgeId>,
        /// Source-side sweep state.
        side_s: SideCheckpoint,
        /// Sink-side sweep state.
        side_t: SideCheckpoint,
    },
    /// Interrupted Monte-Carlo estimation ([`montecarlo::engine`]). Unlike
    /// the exact kinds, the resumed quantity is a statistical estimate — but
    /// resume is still bit-identical: the finished run equals an
    /// uninterrupted run with the same settings.
    MonteCarlo(montecarlo::McCheckpoint),
    /// Interrupted recursive-plan execution ([`crate::plan`]).
    Plan(PlanCheckpoint),
    /// Interrupted budgeted factoring run
    /// ([`crate::factoring::reliability_factoring_anytime`]): a naive sweep
    /// state over factoring's walk.
    Factoring(NaiveCheckpoint),
}

/// A resumable snapshot of an interrupted calculation.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the instance (network + demand + enumeration-relevant
    /// options) the snapshot belongs to; checked on resume. Always the
    /// fingerprint of the *original* instance as the user posed it, whether
    /// or not structural reduction ran.
    pub fingerprint: u64,
    /// When the run swept a structurally reduced instance
    /// ([`crate::reduce`]), the fingerprint of that reduced instance. The
    /// resuming process re-runs the (deterministic) reduction and verifies
    /// the shape before splicing cursors back in; `None` means the sweep ran
    /// on the original instance, so legacy checkpoints — whose text form has
    /// no `reduce-shape` line — resume exactly as before.
    pub reduce_shape: Option<u64>,
    /// When the run enumerated a multi-state instance, the mixed radices of
    /// its state digits (one entry per digit, each ≥ 2), validated against
    /// the instance on resume. `None` means all-binary, so legacy
    /// checkpoints — whose text form has no `radices` line — resume exactly
    /// as before, and all-binary checkpoints keep the legacy byte layout.
    pub radices: Option<Vec<u32>>,
    /// Algorithm-specific payload.
    pub kind: CheckpointKind,
}

/// FNV-1a over the instance description: graph kind, nodes, every edge's
/// endpoints/capacity/failure probability (as IEEE-754 bits), capacity
/// spectra when present, the demand, and the two options that change the
/// enumeration itself (`factor_perfect_links`, `assignment_model`). Anything
/// else — solver, parallelism, budget, cache sizes — may differ between the
/// interrupted and the resuming run without affecting the result.
///
/// Spectrum data is mixed in *only* when the network carries at least one
/// multi-state link, so all-binary fingerprints are byte-for-byte identical
/// to what earlier (spectrum-unaware) releases computed and their
/// checkpoints keep resuming.
pub fn instance_fingerprint(net: &Network, demand: &FlowDemand, opts: &CalcOptions) -> u64 {
    let mut h = Fnv1a::new();
    h.write(match net.kind() {
        GraphKind::Directed => 1,
        GraphKind::Undirected => 2,
    });
    h.write(net.node_count() as u64);
    h.write(net.edge_count() as u64);
    for e in net.edges() {
        h.write(e.src.0 as u64);
        h.write(e.dst.0 as u64);
        h.write(e.capacity);
        h.write(e.fail_prob.to_bits());
    }
    if net.has_multistate() {
        for i in 0..net.edge_count() {
            if let Some(sp) = net.spectrum(EdgeId::from(i)) {
                h.write(i as u64);
                h.write(sp.k() as u64);
                for &(c, p) in sp.states() {
                    h.write(c);
                    h.write(p.to_bits());
                }
            }
        }
    }
    h.write(demand.source.0 as u64);
    h.write(demand.sink.0 as u64);
    h.write(demand.demand);
    h.write(opts.factor_perfect_links as u64);
    h.write(match opts.assignment_model {
        AssignmentModel::ForwardOnly => 1,
        AssignmentModel::Net => 2,
    });
    h.finish()
}

pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

const HEADER: &str = "flowrel-checkpoint v1";

/// How far a checkpoint's probability sums may stray past `[0, 1]` (and a
/// feasible sum past its explored sum) through rounding before a resume
/// refuses the checkpoint.
pub(crate) const SLACK: f64 = 1e-9;

/// Refuses one lane's certificate list when no run could have written it:
/// longer than [`LANE_CERTS`], which also bounds the pairwise test, or
/// holding a support and a cut that contradict each other (see
/// [`maxflow::contradiction`]), which would answer some configurations both
/// ways. `caps` are the capacities of the links the certificates' bits
/// name; `which` names the list.
pub(crate) fn check_certs(
    certs: &[SolveCert],
    caps: &[u64],
    which: &str,
) -> Result<(), ReliabilityError> {
    if certs.len() > LANE_CERTS {
        return Err(bad(format!(
            "{which} checkpoint carries {} certificates for one lane, a run writes at most \
             {LANE_CERTS}",
            certs.len()
        )));
    }
    match maxflow::contradiction(certs, caps) {
        None => Ok(()),
        Some((support, crossing, needed)) => Err(bad(format!(
            "{which} certificates contradict: support {support:#x} carries less than \
             {needed} across cut {crossing:#x}"
        ))),
    }
}

fn bad(reason: impl Into<String>) -> ReliabilityError {
    ReliabilityError::CheckpointMismatch {
        reason: reason.into(),
    }
}

impl Checkpoint {
    /// Serializes to the line-oriented text form. Floating-point state is
    /// written as IEEE-754 bit patterns, so the round-trip is exact.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        if let Some(shape) = self.reduce_shape {
            // v1 extension: absent for unreduced runs, so files written
            // without reduction are byte-identical to the legacy format
            out.push_str(&format!("reduce-shape {shape:016x}\n"));
        }
        if let Some(radices) = &self.radices {
            // v1 extension: absent for all-binary instances, so binary
            // checkpoints keep the exact legacy byte layout
            out.push_str(&format!("radices {}", radices.len()));
            for r in radices {
                out.push_str(&format!(" {r}"));
            }
            out.push('\n');
        }
        match &self.kind {
            CheckpointKind::Naive(n) => {
                out.push_str("kind naive\n");
                write_naive_body(&mut out, n);
            }
            CheckpointKind::MonteCarlo(mc) => {
                out.push_str("kind montecarlo\n");
                write_mc(&mut out, mc);
            }
            CheckpointKind::Bottleneck {
                cut,
                side_s,
                side_t,
            } => {
                out.push_str("kind bottleneck\n");
                out.push_str(&format!("cut {}", cut.len()));
                for e in cut {
                    out.push_str(&format!(" {}", e.0));
                }
                out.push('\n');
                write_side(&mut out, "s", side_s);
                write_side(&mut out, "t", side_t);
            }
            CheckpointKind::Plan(p) => {
                out.push_str("kind plan\n");
                out.push_str(&format!("root-cut {}", p.root_cut.len()));
                for e in &p.root_cut {
                    out.push_str(&format!(" {}", e.0));
                }
                out.push('\n');
                out.push_str(&format!("root-maxk {}\n", p.root_max_k));
                out.push_str(&format!("max-depth {}\n", p.max_depth));
                out.push_str(&format!("deep {}\n", p.recursive_cut_sides as u8));
                // optional line: written only for hybrid runs, so MC-free
                // checkpoints keep the exact legacy byte layout
                if p.hybrid {
                    out.push_str("hybrid 1\n");
                }
                out.push_str(&format!("shape {:016x}\n", p.shape));
                out.push_str(&format!("shares {}\n", p.shares.len()));
                for &sh in &p.shares {
                    out.push_str(&format!("sh {:016x}\n", sh.to_bits()));
                }
                out.push_str(&format!("leaves {}\n", p.leaves.len()));
                for leaf in &p.leaves {
                    match leaf {
                        PlanLeafState::Fresh => out.push_str("leaf fresh\n"),
                        PlanLeafState::Done { value } => {
                            out.push_str(&format!("leaf done {:016x}\n", value.to_bits()))
                        }
                        PlanLeafState::Naive(n) => {
                            out.push_str("leaf naive\n");
                            write_naive_body(&mut out, n);
                        }
                        PlanLeafState::Cut { side_s, side_t } => {
                            out.push_str("leaf cut\n");
                            write_side(&mut out, "s", side_s);
                            write_side(&mut out, "t", side_t);
                        }
                        PlanLeafState::Side(side) => {
                            out.push_str("leaf side\n");
                            write_side(&mut out, "x", side);
                        }
                        PlanLeafState::McDone { mean, lo, hi } => {
                            out.push_str(&format!(
                                "leaf mc-done {:016x} {:016x} {:016x}\n",
                                mean.to_bits(),
                                lo.to_bits(),
                                hi.to_bits()
                            ));
                        }
                        PlanLeafState::MonteCarlo(mc) => {
                            out.push_str("leaf mc\n");
                            write_mc(&mut out, mc);
                        }
                    }
                }
            }
            CheckpointKind::Factoring(n) => {
                out.push_str("kind factoring\n");
                write_naive_body(&mut out, n);
            }
        }
        out
    }

    /// Parses the text form produced by [`Checkpoint::to_text`].
    ///
    /// Counts read from the text never size an allocation up front: lists
    /// grow as their entries are read, so a corrupt count ends in
    /// [`ReliabilityError::CheckpointMismatch`] when the text runs out.
    pub fn from_text(text: &str) -> Result<Checkpoint, ReliabilityError> {
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(bad("missing or unrecognized checkpoint header"));
        }
        let fingerprint = u64::from_str_radix(
            field(&mut lines, "fingerprint")?
                .first()
                .ok_or_else(|| bad("fingerprint line is empty"))?,
            16,
        )
        .map_err(|_| bad("unparseable fingerprint"))?;
        // optional v1 extension line; `field` errors on a tag mismatch, so
        // peek on a clone and only commit the advance when the tag matches
        let save = lines.clone();
        let reduce_shape = match field(&mut lines, "reduce-shape") {
            Ok(f) => Some(parse_hex(f.first(), "reduce shape")?),
            Err(_) => {
                lines = save;
                None
            }
        };
        // optional `radices` line (absent for all-binary instances), same
        // peek-on-clone rewind as `reduce-shape`
        let save = lines.clone();
        let radices = match field(&mut lines, "radices") {
            Ok(f) => {
                let n: usize = parse(f.first(), "radix count")?;
                if n.checked_add(1) != Some(f.len()) {
                    return Err(bad("radices line has the wrong arity"));
                }
                let rs = f[1..]
                    .iter()
                    .map(|s| parse::<u32>(Some(s), "radix entry"))
                    .collect::<Result<Vec<_>, _>>()?;
                if rs.iter().any(|&r| r < 2) {
                    return Err(bad("every radix must be at least 2"));
                }
                Some(rs)
            }
            Err(_) => {
                lines = save;
                None
            }
        };
        let kind_line = field(&mut lines, "kind")?;
        let kind = match kind_line.first().copied() {
            Some("naive") => CheckpointKind::Naive(read_naive_body(&mut lines)?),
            Some("montecarlo") => CheckpointKind::MonteCarlo(read_mc(&mut lines)?),
            Some("bottleneck") => {
                let cut_fields = field(&mut lines, "cut")?;
                let n: usize = parse(cut_fields.first(), "cut count")?;
                if n.checked_add(1) != Some(cut_fields.len()) {
                    return Err(bad("cut line has the wrong arity"));
                }
                let cut = cut_fields[1..]
                    .iter()
                    .map(|s| parse(Some(s), "cut edge id").map(EdgeId))
                    .collect::<Result<Vec<_>, _>>()?;
                let side_s = read_side(&mut lines, "s")?;
                let side_t = read_side(&mut lines, "t")?;
                CheckpointKind::Bottleneck {
                    cut,
                    side_s,
                    side_t,
                }
            }
            Some("plan") => {
                let cf = field(&mut lines, "root-cut")?;
                let n: usize = parse(cf.first(), "root cut count")?;
                if n.checked_add(1) != Some(cf.len()) {
                    return Err(bad("root-cut line has the wrong arity"));
                }
                let root_cut = cf[1..]
                    .iter()
                    .map(|s| parse(Some(s), "root cut edge id").map(EdgeId))
                    .collect::<Result<Vec<_>, _>>()?;
                let root_max_k = parse(field(&mut lines, "root-maxk")?.first(), "root max k")?;
                let max_depth = parse(field(&mut lines, "max-depth")?.first(), "plan max depth")?;
                let deep: u8 = parse(field(&mut lines, "deep")?.first(), "plan deep flag")?;
                if deep > 1 {
                    return Err(bad("plan deep flag must be 0 or 1"));
                }
                // optional hybrid line (absent in pre-hybrid checkpoints):
                // peek on a clone so a miss rewinds to the saved cursor
                let save = lines.clone();
                let hybrid = match field(&mut lines, "hybrid") {
                    Ok(hf) => {
                        let flag: u8 = parse(hf.first(), "plan hybrid flag")?;
                        if flag > 1 {
                            return Err(bad("plan hybrid flag must be 0 or 1"));
                        }
                        flag == 1
                    }
                    Err(_) => {
                        lines = save;
                        false
                    }
                };
                let shape = parse_hex(field(&mut lines, "shape")?.first(), "plan shape")?;
                let share_count: usize =
                    parse(field(&mut lines, "shares")?.first(), "plan share count")?;
                let mut shares = Vec::new();
                for _ in 0..share_count {
                    let s = field(&mut lines, "sh")?;
                    shares.push(f64::from_bits(parse_hex(s.first(), "share entry")?));
                }
                let count: usize = parse(field(&mut lines, "leaves")?.first(), "plan leaf count")?;
                let mut leaves = Vec::new();
                for _ in 0..count {
                    let lf = field(&mut lines, "leaf")?;
                    match lf.first().copied() {
                        Some("fresh") => leaves.push(PlanLeafState::Fresh),
                        Some("done") => leaves.push(PlanLeafState::Done {
                            value: f64::from_bits(parse_hex(lf.get(1), "leaf value")?),
                        }),
                        Some("naive") => {
                            leaves.push(PlanLeafState::Naive(read_naive_body(&mut lines)?))
                        }
                        Some("cut") => {
                            let side_s = read_side(&mut lines, "s")?;
                            let side_t = read_side(&mut lines, "t")?;
                            leaves.push(PlanLeafState::Cut {
                                side_s: Box::new(side_s),
                                side_t: Box::new(side_t),
                            });
                        }
                        Some("side") => {
                            let side = read_side(&mut lines, "x")?;
                            leaves.push(PlanLeafState::Side(Box::new(side)));
                        }
                        Some("mc-done") => leaves.push(PlanLeafState::McDone {
                            mean: f64::from_bits(parse_hex(lf.get(1), "leaf mc mean")?),
                            lo: f64::from_bits(parse_hex(lf.get(2), "leaf mc lo")?),
                            hi: f64::from_bits(parse_hex(lf.get(3), "leaf mc hi")?),
                        }),
                        Some("mc") => {
                            let mc = read_mc(&mut lines)?;
                            leaves.push(PlanLeafState::MonteCarlo(Box::new(mc)));
                        }
                        _ => return Err(bad("unknown plan leaf state")),
                    }
                }
                CheckpointKind::Plan(PlanCheckpoint {
                    root_cut,
                    root_max_k,
                    max_depth,
                    recursive_cut_sides: deep == 1,
                    hybrid,
                    shape,
                    shares,
                    leaves,
                })
            }
            Some("factoring") => {
                if field(&mut lines.clone(), "accum").is_ok() {
                    return Err(bad(
                        "factoring checkpoint holds a conditioning frame stack: it was written \
                         before factoring ran on the sweep driver, and cannot be resumed",
                    ));
                }
                CheckpointKind::Factoring(read_naive_body(&mut lines)?)
            }
            _ => return Err(bad("unknown checkpoint kind")),
        };
        Ok(Checkpoint {
            fingerprint,
            reduce_shape,
            radices,
            kind,
        })
    }
}

fn write_mc(out: &mut String, mc: &montecarlo::McCheckpoint) {
    let s = &mc.settings;
    out.push_str(&format!("mc-estimator {}\n", s.estimator.name()));
    out.push_str(&format!("mc-seed {}\n", s.seed));
    out.push_str(&format!("mc-batch {}\n", s.batch));
    out.push_str(&format!("mc-solver {}\n", s.solver.name()));
    out.push_str(&format!("mc-strata {}", s.strata.len()));
    for e in &s.strata {
        out.push_str(&format!(" {}", e.0));
    }
    out.push('\n');
    let opt_bits = |v: Option<f64>| match v {
        Some(x) => format!("{:016x}", x.to_bits()),
        None => "-".to_string(),
    };
    out.push_str(&format!(
        "mc-target {} {} {}\n",
        opt_bits(s.target.rel_err),
        opt_bits(s.target.ci_half),
        s.target.max_samples
    ));
    out.push_str(&format!(
        "mc-cursor {} {} {}\n",
        mc.next_batch, mc.samples, mc.flow_evals
    ));
    match &mc.accum {
        montecarlo::McAccum::Counts { successes } => {
            out.push_str(&format!("mc-accum counts {successes}\n"));
        }
        montecarlo::McAccum::Strata { counts } => {
            out.push_str(&format!("mc-accum strata {}\n", counts.len()));
            for &(succ, n) in counts {
                out.push_str(&format!("sc {succ} {n}\n"));
            }
        }
        montecarlo::McAccum::Perm { sum, sum_sq } => {
            out.push_str(&format!(
                "mc-accum perm {:016x} {:016x} {:016x} {:016x}\n",
                sum.0.to_bits(),
                sum.1.to_bits(),
                sum_sq.0.to_bits(),
                sum_sq.1.to_bits()
            ));
        }
    }
}

fn read_mc(lines: &mut std::str::Lines<'_>) -> Result<montecarlo::McCheckpoint, ReliabilityError> {
    use montecarlo::{EstimatorKind, McAccum, McCheckpoint, McSettings, StopTarget};
    let ef = field(lines, "mc-estimator")?;
    let estimator = ef
        .first()
        .and_then(|s| EstimatorKind::from_name(s))
        .ok_or_else(|| bad("unknown Monte-Carlo estimator"))?;
    let seed: u64 = parse(field(lines, "mc-seed")?.first(), "mc seed")?;
    let batch: u64 = parse(field(lines, "mc-batch")?.first(), "mc batch size")?;
    let sf = field(lines, "mc-solver")?;
    let solver = sf
        .first()
        .and_then(|s| maxflow::SolverKind::ALL.iter().find(|k| k.name() == *s))
        .copied()
        .ok_or_else(|| bad("unknown Monte-Carlo solver"))?;
    let stf = field(lines, "mc-strata")?;
    let n: usize = parse(stf.first(), "strata count")?;
    if n.checked_add(1) != Some(stf.len()) {
        return Err(bad("mc-strata line has the wrong arity"));
    }
    let strata = stf[1..]
        .iter()
        .map(|s| parse(Some(s), "stratum link id").map(EdgeId))
        .collect::<Result<Vec<_>, _>>()?;
    let tf = field(lines, "mc-target")?;
    let opt_bits = |s: Option<&&str>, what: &str| -> Result<Option<f64>, ReliabilityError> {
        match s {
            Some(&"-") => Ok(None),
            other => Ok(Some(f64::from_bits(parse_hex(other, what)?))),
        }
    };
    let target = StopTarget {
        rel_err: opt_bits(tf.first(), "mc rel-err target")?,
        ci_half: opt_bits(tf.get(1), "mc ci target")?,
        max_samples: parse(tf.get(2), "mc sample cap")?,
    };
    let cf = field(lines, "mc-cursor")?;
    let next_batch: u64 = parse(cf.first(), "mc cursor batch")?;
    let samples: u64 = parse(cf.get(1), "mc cursor samples")?;
    let flow_evals: u64 = parse(cf.get(2), "mc cursor flow evals")?;
    let af = field(lines, "mc-accum")?;
    let accum = match af.first().copied() {
        Some("counts") => McAccum::Counts {
            successes: parse(af.get(1), "mc success count")?,
        },
        Some("strata") => {
            let k: usize = parse(af.get(1), "mc stratum count")?;
            let mut counts = Vec::new();
            for _ in 0..k {
                let sc = field(lines, "sc")?;
                counts.push((
                    parse(sc.first(), "stratum successes")?,
                    parse(sc.get(1), "stratum samples")?,
                ));
            }
            McAccum::Strata { counts }
        }
        Some("perm") => McAccum::Perm {
            sum: (
                f64::from_bits(parse_hex(af.get(1), "perm sum")?),
                f64::from_bits(parse_hex(af.get(2), "perm sum compensation")?),
            ),
            sum_sq: (
                f64::from_bits(parse_hex(af.get(3), "perm sum of squares")?),
                f64::from_bits(parse_hex(af.get(4), "perm square compensation")?),
            ),
        },
        _ => return Err(bad("unknown Monte-Carlo accumulator kind")),
    };
    Ok(McCheckpoint {
        settings: McSettings {
            seed,
            estimator,
            strata,
            target,
            batch,
            solver,
        },
        next_batch,
        samples,
        flow_evals,
        accum,
    })
}

fn write_naive_body(out: &mut String, n: &NaiveCheckpoint) {
    write_cursor(out, &n.cursor);
    out.push_str(&format!(
        "feasible {:016x} {:016x}\n",
        n.feasible.0.to_bits(),
        n.feasible.1.to_bits()
    ));
    out.push_str(&format!(
        "explored {:016x} {:016x}\n",
        n.explored.0.to_bits(),
        n.explored.1.to_bits()
    ));
    write_certs(out, &n.certs);
}

fn read_naive_body(lines: &mut std::str::Lines<'_>) -> Result<NaiveCheckpoint, ReliabilityError> {
    let cursor = read_cursor(lines)?;
    let feasible = read_f64_pair(lines, "feasible")?;
    let explored = read_f64_pair(lines, "explored")?;
    let certs = read_certs(lines)?;
    Ok(NaiveCheckpoint {
        cursor,
        feasible,
        explored,
        certs,
    })
}

/// Whether a side sweep of `total` configurations walks its links nearest
/// first ([`crate::spectrum::side_order`]): its section then carries the
/// `order bfs` line, which side sections written before that order lack.
fn nearest_first(total: u64) -> bool {
    total > 1 << LEAF_LINKS
}

fn write_side(out: &mut String, label: &str, side: &SideCheckpoint) {
    out.push_str(&format!("side {label}\n"));
    if nearest_first(side.cursor.total) {
        out.push_str("order bfs\n");
    }
    write_cursor(out, &side.cursor);
    out.push_str(&format!("live {}", side.live.len()));
    for &j in &side.live {
        out.push_str(&format!(" {j}"));
    }
    out.push('\n');
    out.push_str(&format!("mass {}\n", side.mass.len()));
    for &m in &side.mass {
        out.push_str(&format!("m {:016x}\n", m.to_bits()));
    }
    out.push_str(&format!("certgroups {}\n", side.certs.len()));
    for group in &side.certs {
        write_certs(out, group);
    }
}

fn write_cursor(out: &mut String, cursor: &SweepCursor) {
    out.push_str(&format!(
        "cursor {:x} {}\n",
        cursor.total,
        cursor.remaining.len()
    ));
    for &(lo, hi) in &cursor.remaining {
        out.push_str(&format!("range {lo:x} {hi:x}\n"));
    }
}

fn write_certs(out: &mut String, certs: &[SolveCert]) {
    let count = certs
        .iter()
        .filter(|c| !matches!(c, SolveCert::None))
        .count();
    out.push_str(&format!("certs {count}\n"));
    for c in certs {
        match *c {
            SolveCert::Feasible { support } => out.push_str(&format!("F {support:x}\n")),
            SolveCert::Infeasible { crossing, needed } => {
                out.push_str(&format!("I {crossing:x} {needed}\n"))
            }
            SolveCert::None => {}
        }
    }
}

/// Reads the next non-empty line, checks its tag, and returns the fields
/// after the tag.
fn field<'a>(lines: &mut std::str::Lines<'a>, tag: &str) -> Result<Vec<&'a str>, ReliabilityError> {
    let line = lines
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| bad(format!("unexpected end of checkpoint, wanted `{tag}`")))?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(tag) {
        return Err(bad(format!("expected `{tag}` line, found `{line}`")));
    }
    Ok(parts.collect())
}

fn parse<T: std::str::FromStr>(s: Option<&&str>, what: &str) -> Result<T, ReliabilityError> {
    s.ok_or_else(|| bad(format!("missing {what}")))?
        .parse()
        .map_err(|_| bad(format!("unparseable {what}")))
}

fn parse_hex(s: Option<&&str>, what: &str) -> Result<u64, ReliabilityError> {
    u64::from_str_radix(s.ok_or_else(|| bad(format!("missing {what}")))?, 16)
        .map_err(|_| bad(format!("unparseable {what}")))
}

fn read_cursor(lines: &mut std::str::Lines<'_>) -> Result<SweepCursor, ReliabilityError> {
    let f = field(lines, "cursor")?;
    let total = parse_hex(f.first(), "cursor total")?;
    let n: usize = parse(f.get(1), "cursor range count")?;
    let mut remaining = Vec::new();
    for _ in 0..n {
        let r = field(lines, "range")?;
        let lo = parse_hex(r.first(), "range lo")?;
        let hi = parse_hex(r.get(1), "range hi")?;
        if lo >= hi || hi > total {
            return Err(bad("range out of bounds"));
        }
        remaining.push((lo, hi));
    }
    Ok(SweepCursor { total, remaining })
}

fn read_f64_pair(
    lines: &mut std::str::Lines<'_>,
    tag: &str,
) -> Result<(f64, f64), ReliabilityError> {
    let f = field(lines, tag)?;
    Ok((
        f64::from_bits(parse_hex(f.first(), tag)?),
        f64::from_bits(parse_hex(f.get(1), tag)?),
    ))
}

fn read_certs(lines: &mut std::str::Lines<'_>) -> Result<Vec<SolveCert>, ReliabilityError> {
    let f = field(lines, "certs")?;
    let n: usize = parse(f.first(), "certificate count")?;
    let mut certs = Vec::new();
    for _ in 0..n {
        let line = lines
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| bad("unexpected end of checkpoint in certificate list"))?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.first().copied() {
            Some("F") => certs.push(SolveCert::Feasible {
                support: parse_hex(parts.get(1), "certificate support")?,
            }),
            Some("I") => certs.push(SolveCert::Infeasible {
                crossing: parse_hex(parts.get(1), "certificate crossing set")?,
                needed: parse(parts.get(2), "certificate threshold")?,
            }),
            _ => return Err(bad(format!("unparseable certificate line `{line}`"))),
        }
    }
    Ok(certs)
}

fn read_side(
    lines: &mut std::str::Lines<'_>,
    label: &str,
) -> Result<SideCheckpoint, ReliabilityError> {
    let f = field(lines, "side")?;
    if f.first().copied() != Some(label) {
        return Err(bad(format!("expected side `{label}`")));
    }
    // optional `order` line, same peek-on-clone rewind as `reduce-shape`
    let save = lines.clone();
    let ordered = match field(lines, "order") {
        Ok(o) if o[..] == ["bfs"] => true,
        Ok(_) => return Err(bad("unknown side link order")),
        Err(_) => {
            *lines = save;
            false
        }
    };
    let cursor = read_cursor(lines)?;
    if ordered != nearest_first(cursor.total) {
        return Err(bad(if ordered {
            format!(
                "side `{label}` of {} configurations carries a link order no run writes",
                cursor.total
            )
        } else {
            format!(
                "side `{label}` has more than {LEAF_LINKS} links but no `order bfs` line: it \
                 was written before side sweeps walked their links nearest first, and its \
                 cursor cannot be resumed"
            )
        }));
    }
    let lf = field(lines, "live")?;
    let n: usize = parse(lf.first(), "live count")?;
    if n.checked_add(1) != Some(lf.len()) {
        return Err(bad("live line has the wrong arity"));
    }
    let live = lf[1..]
        .iter()
        .map(|s| parse(Some(s), "live assignment index"))
        .collect::<Result<Vec<usize>, _>>()?;
    let mf = field(lines, "mass")?;
    let mn: usize = parse(mf.first(), "mass count")?;
    let mut mass = Vec::new();
    for _ in 0..mn {
        let m = field(lines, "m")?;
        mass.push(f64::from_bits(parse_hex(m.first(), "mass entry")?));
    }
    let gf = field(lines, "certgroups")?;
    let groups: usize = parse(gf.first(), "certificate group count")?;
    let mut certs = Vec::new();
    for _ in 0..groups {
        certs.push(read_certs(lines)?);
    }
    Ok(SideCheckpoint {
        cursor,
        live,
        mass,
        certs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_checkpoint() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xdead_beef_0123_4567,
            reduce_shape: None,
            radices: None,
            kind: CheckpointKind::Naive(NaiveCheckpoint {
                cursor: SweepCursor {
                    total: 1 << 12,
                    remaining: vec![(100, 512), (1024, 1 << 12)],
                },
                feasible: (0.123456789, -3.2e-17),
                explored: (0.5, 1.1e-18),
                certs: vec![
                    SolveCert::Feasible { support: 0b1011 },
                    SolveCert::Infeasible {
                        crossing: 0b0110,
                        needed: 3,
                    },
                ],
            }),
        }
    }

    fn bottleneck_checkpoint() -> Checkpoint {
        let side = |total: u64| SideCheckpoint {
            cursor: SweepCursor {
                total,
                remaining: vec![(7, total)],
            },
            live: vec![0, 2, 3],
            mass: vec![0.25, 0.0, 1e-300, 0.125],
            certs: vec![
                vec![SolveCert::Feasible { support: 1 }],
                vec![],
                vec![SolveCert::Infeasible {
                    crossing: 3,
                    needed: 2,
                }],
            ],
        };
        Checkpoint {
            fingerprint: 42,
            reduce_shape: None,
            radices: None,
            kind: CheckpointKind::Bottleneck {
                cut: vec![EdgeId(2), EdgeId(5)],
                side_s: side(64),
                side_t: side(128),
            },
        }
    }

    #[test]
    fn side_sections_over_six_links_carry_the_order_marker() {
        // side s enumerates 64 configurations, side t 128
        let text = bottleneck_checkpoint().to_text();
        assert_eq!(text.matches("order bfs").count(), 1);
        assert!(text.contains("side t\norder bfs\ncursor 80 "));
        for bad in [
            text.replace("side t\norder bfs\n", "side t\n"),
            text.replace("side s\n", "side s\norder bfs\n"),
            text.replace("order bfs", "order dfs"),
        ] {
            assert!(matches!(
                Checkpoint::from_text(&bad),
                Err(ReliabilityError::CheckpointMismatch { .. })
            ));
        }
    }

    #[test]
    fn naive_round_trip_is_exact() {
        let ck = naive_checkpoint();
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(back, ck);
        // bit-exactness of the accumulator state, explicitly
        if let (CheckpointKind::Naive(a), CheckpointKind::Naive(b)) = (&ck.kind, &back.kind) {
            assert_eq!(a.feasible.0.to_bits(), b.feasible.0.to_bits());
            assert_eq!(a.feasible.1.to_bits(), b.feasible.1.to_bits());
        }
    }

    #[test]
    fn bottleneck_round_trip_is_exact() {
        let ck = bottleneck_checkpoint();
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(back, ck);
    }

    fn mc_checkpoint(accum: montecarlo::McAccum) -> Checkpoint {
        Checkpoint {
            fingerprint: 7,
            reduce_shape: None,
            radices: None,
            kind: CheckpointKind::MonteCarlo(montecarlo::McCheckpoint {
                settings: montecarlo::McSettings {
                    seed: 0x0123_4567_89ab_cdef,
                    estimator: montecarlo::EstimatorKind::Dagger,
                    strata: vec![EdgeId(3), EdgeId(0)],
                    target: montecarlo::StopTarget {
                        rel_err: Some(0.05),
                        ci_half: None,
                        max_samples: 1 << 20,
                    },
                    batch: 2048,
                    solver: maxflow::SolverKind::PushRelabel,
                },
                next_batch: 17,
                samples: 17 * 2048,
                flow_evals: 40_000,
                accum,
            }),
        }
    }

    #[test]
    fn montecarlo_round_trips_every_accumulator_bit_exactly() {
        use montecarlo::McAccum;
        let accums = [
            McAccum::Counts { successes: 12345 },
            McAccum::Strata {
                counts: vec![(10, 1024), (0, 512), (2048, 2048)],
            },
            McAccum::Perm {
                sum: (1.0e-8, -3.1e-25),
                sum_sq: (4.2e-16, 7.0e-33),
            },
        ];
        for accum in accums {
            let ck = mc_checkpoint(accum);
            let back = Checkpoint::from_text(&ck.to_text()).unwrap();
            assert_eq!(back, ck);
        }
        // PartialEq on f64 would accept -0.0 == 0.0; check the hex encoding
        // really is bit-exact for a negative-zero compensation term.
        let ck = mc_checkpoint(montecarlo::McAccum::Perm {
            sum: (0.1, -0.0),
            sum_sq: (0.01, 0.0),
        });
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        let CheckpointKind::MonteCarlo(mc) = &back.kind else {
            panic!("kind must survive the round trip");
        };
        let montecarlo::McAccum::Perm { sum, .. } = &mc.accum else {
            panic!("accumulator kind must survive the round trip");
        };
        assert_eq!(sum.1.to_bits(), (-0.0f64).to_bits());
    }

    fn plan_checkpoint() -> Checkpoint {
        let CheckpointKind::Naive(naive) = naive_checkpoint().kind else {
            panic!("naive fixture must be naive");
        };
        let CheckpointKind::Bottleneck { side_s, side_t, .. } = bottleneck_checkpoint().kind else {
            panic!("bottleneck fixture must be bottleneck");
        };
        let side_x = side_s.clone();
        Checkpoint {
            fingerprint: 0x1234_5678_9abc_def0,
            reduce_shape: None,
            radices: None,
            kind: CheckpointKind::Plan(PlanCheckpoint {
                root_cut: vec![EdgeId(3), EdgeId(9)],
                root_max_k: 3,
                max_depth: 7,
                recursive_cut_sides: true,
                hybrid: false,
                shape: 0xfeed_face_cafe_beef,
                shares: vec![0.5, 0.25, 0.125, 0.0625, 0.0625],
                leaves: vec![
                    PlanLeafState::Done { value: 0.875 },
                    PlanLeafState::Naive(naive),
                    PlanLeafState::Fresh,
                    PlanLeafState::Cut {
                        side_s: Box::new(side_s),
                        side_t: Box::new(side_t),
                    },
                    PlanLeafState::Side(Box::new(side_x)),
                ],
            }),
        }
    }

    #[test]
    fn plan_round_trip_is_exact() {
        let ck = plan_checkpoint();
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn hybrid_plan_round_trip_is_exact() {
        let CheckpointKind::MonteCarlo(mc) =
            mc_checkpoint(montecarlo::McAccum::Counts { successes: 777 }).kind
        else {
            panic!("mc fixture must be montecarlo");
        };
        let mut ck = plan_checkpoint();
        let CheckpointKind::Plan(p) = &mut ck.kind else {
            panic!("plan fixture must be plan");
        };
        p.hybrid = true;
        p.leaves.push(PlanLeafState::McDone {
            mean: 0.9375,
            lo: 0.9,
            hi: 0.96875,
        });
        p.leaves.push(PlanLeafState::MonteCarlo(Box::new(mc)));
        p.shares.push(0.0);
        p.shares.push(0.0);
        let text = ck.to_text();
        assert!(text.contains("hybrid 1\n"), "hybrid runs record the knob");
        let back = Checkpoint::from_text(&text).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn legacy_plan_text_without_hybrid_line_stays_byte_stable() {
        // a pre-hybrid (PR 8-era) plan checkpoint has no `hybrid` line and
        // no mc leaves; it must parse as hybrid=false and re-serialize to
        // the identical bytes, so old checkpoints resume bit-identically
        // whether the resuming process runs with --hybrid on or off
        let legacy = "flowrel-checkpoint v1\n\
                      fingerprint 123456789abcdef0\n\
                      kind plan\n\
                      root-cut 2 3 9\n\
                      root-maxk 3\n\
                      max-depth 7\n\
                      deep 1\n\
                      shape feedfacecafebeef\n\
                      shares 2\n\
                      sh 3fe0000000000000\n\
                      sh 3fd0000000000000\n\
                      leaves 2\n\
                      leaf done 3fec000000000000\n\
                      leaf fresh\n";
        let ck = Checkpoint::from_text(legacy).unwrap();
        let CheckpointKind::Plan(p) = &ck.kind else {
            panic!("legacy text must parse as a plan checkpoint");
        };
        assert!(!p.hybrid, "missing hybrid line means hybrid off");
        assert_eq!(ck.to_text(), legacy, "MC-free round trip is byte-exact");
    }

    /// [`naive_checkpoint`]'s sweep state as a factoring checkpoint.
    fn factoring_checkpoint() -> Checkpoint {
        let CheckpointKind::Naive(n) = naive_checkpoint().kind else {
            unreachable!("a naive fixture");
        };
        Checkpoint {
            fingerprint: 99,
            reduce_shape: None,
            radices: None,
            kind: CheckpointKind::Factoring(n),
        }
    }

    #[test]
    fn factoring_round_trip_is_exact() {
        let mut ck = factoring_checkpoint();
        let CheckpointKind::Factoring(n) = &mut ck.kind else {
            unreachable!("a factoring fixture");
        };
        n.explored.1 = -0.0;
        let text = ck.to_text();
        assert!(text.contains("\nkind factoring\ncursor 1000 2\n"), "{text}");
        let back = Checkpoint::from_text(&text).unwrap();
        assert_eq!(back, ck);
        let CheckpointKind::Factoring(n) = &back.kind else {
            panic!("kind must survive the round trip");
        };
        assert_eq!(n.explored.1.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn factoring_checkpoints_of_the_conditioning_frame_stack_are_refused() {
        let legacy = "flowrel-checkpoint v1\nfingerprint 0000000000000063\nkind factoring\n\
                      accum 3fc017dcf8d3293a 3c70800000000000\nleafcount 6\npending 1\n\
                      frame 0 ffe\n";
        let err = Checkpoint::from_text(legacy).unwrap_err();
        assert!(
            matches!(&err, ReliabilityError::CheckpointMismatch { reason }
                if reason.contains("before factoring ran on the sweep driver")),
            "{err}"
        );
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(Checkpoint::from_text("").is_err());
        assert!(Checkpoint::from_text("not a checkpoint\n").is_err());
        let text = naive_checkpoint().to_text();
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(Checkpoint::from_text(&truncated).is_err());
        let corrupted = text.replace("kind naive", "kind cubist");
        assert!(Checkpoint::from_text(&corrupted).is_err());
    }

    #[test]
    fn huge_counts_are_mismatches_not_allocations() {
        // every count a list is read by, and every count an arity check
        // adds one to: (valid text, line as written, line with count {n})
        let plan = plan_checkpoint().to_text();
        let naive = naive_checkpoint().to_text();
        let sides = bottleneck_checkpoint().to_text();
        let factoring = factoring_checkpoint().to_text();
        let strata = mc_checkpoint(montecarlo::McAccum::Strata {
            counts: vec![(1, 2), (3, 4), (5, 6)],
        })
        .to_text();
        let mut radices = naive_checkpoint();
        radices.radices = Some(vec![3, 2]);
        let radices = radices.to_text();
        let cases = [
            (&plan, "shares 5", "shares {n}"),
            (&plan, "leaves 5", "leaves {n}"),
            (&plan, "root-cut 2 3 9", "root-cut {n} 3 9"),
            (&factoring, "cursor 1000 2", "cursor 1000 {n}"),
            (&strata, "mc-accum strata 3", "mc-accum strata {n}"),
            (&strata, "mc-strata 2 3 0", "mc-strata {n} 3 0"),
            (&naive, "cursor 1000 2", "cursor 1000 {n}"),
            (&naive, "certs 2", "certs {n}"),
            (&radices, "radices 2 3 2", "radices {n} 3 2"),
            (&sides, "mass 4", "mass {n}"),
            (&sides, "certgroups 3", "certgroups {n}"),
            (&sides, "live 3 0 2 3", "live {n} 0 2 3"),
            (&sides, "cut 2 2 5", "cut {n} 2 5"),
        ];
        for (text, line, template) in cases {
            for n in [1_000_000_000_000u64, u64::MAX] {
                let corrupt = template.replace("{n}", &n.to_string());
                let bad = text.replacen(&format!("{line}\n"), &format!("{corrupt}\n"), 1);
                assert_ne!(&bad, text, "`{line}` must occur in the fixture");
                assert!(
                    matches!(
                        Checkpoint::from_text(&bad),
                        Err(ReliabilityError::CheckpointMismatch { .. })
                    ),
                    "`{corrupt}` must be a checkpoint mismatch"
                );
            }
        }
    }

    #[test]
    fn reduce_shape_round_trips_and_stays_optional() {
        // with a shape: the line round-trips
        let mut ck = naive_checkpoint();
        ck.reduce_shape = Some(0x0123_4567_89ab_cdef);
        let text = ck.to_text();
        assert!(text.contains("reduce-shape 0123456789abcdef"));
        assert_eq!(Checkpoint::from_text(&text).unwrap(), ck);
        // without: the text form is byte-identical to the legacy format,
        // and legacy files (no reduce-shape line) parse to None
        let legacy = naive_checkpoint();
        assert!(!legacy.to_text().contains("reduce-shape"));
        let back = Checkpoint::from_text(&legacy.to_text()).unwrap();
        assert_eq!(back.reduce_shape, None);
        // a malformed shape value is an error, not a silent None
        let corrupt = text.replace("reduce-shape 0123456789abcdef", "reduce-shape zzz");
        assert!(Checkpoint::from_text(&corrupt).is_err());
    }

    #[test]
    fn radices_round_trip_and_stay_optional() {
        // with radices: the line round-trips
        let mut ck = naive_checkpoint();
        ck.radices = Some(vec![3, 2, 4]);
        let text = ck.to_text();
        assert!(text.contains("radices 3 3 2 4"));
        assert_eq!(Checkpoint::from_text(&text).unwrap(), ck);
        // without: the text form is byte-identical to the legacy format,
        // and legacy files (no radices line) parse to None
        let legacy = naive_checkpoint();
        assert!(!legacy.to_text().contains("radices"));
        let back = Checkpoint::from_text(&legacy.to_text()).unwrap();
        assert_eq!(back.radices, None);
        // wrong arity and sub-binary radices are errors, not silent Nones
        let corrupt = text.replace("radices 3 3 2 4", "radices 3 3 2");
        assert!(Checkpoint::from_text(&corrupt).is_err());
        let corrupt = text.replace("radices 3 3 2 4", "radices 3 3 1 4");
        assert!(Checkpoint::from_text(&corrupt).is_err());
    }

    #[test]
    fn fingerprint_covers_capacity_spectra() {
        use netgraph::{GraphKind, NetworkBuilder, NodeId};
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_spectrum_edge(n[0], n[1], &[(0, 0.25), (1, 0.25), (2, 0.5)])
            .unwrap();
        b.add_edge(n[1], n[2], 2, 0.2).unwrap();
        let net = b.build();
        let d = FlowDemand::new(NodeId(0), NodeId(2), 1);
        let opts = CalcOptions::default();
        let f0 = instance_fingerprint(&net, &d, &opts);
        assert_eq!(f0, instance_fingerprint(&net, &d, &opts), "deterministic");
        // perturbing a state probability perturbs the fingerprint
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_spectrum_edge(n[0], n[1], &[(0, 0.25), (1, 0.5), (2, 0.25)])
            .unwrap();
        b.add_edge(n[1], n[2], 2, 0.2).unwrap();
        let net2 = b.build();
        assert_ne!(f0, instance_fingerprint(&net2, &d, &opts));
    }

    #[test]
    fn cursor_progress_is_sensible() {
        let c = SweepCursor {
            total: 100,
            remaining: vec![(40, 60), (80, 100)],
        };
        assert_eq!(c.remaining_configs(), 40);
        assert!((c.progress() - 0.6).abs() < 1e-15);
        let done = SweepCursor {
            total: 100,
            remaining: vec![],
        };
        assert_eq!(done.progress(), 1.0);
    }

    #[test]
    fn fingerprint_distinguishes_instances() {
        use netgraph::{GraphKind, NetworkBuilder, NodeId};
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 2, 0.2).unwrap();
        let net = b.build();
        let d = FlowDemand::new(NodeId(0), NodeId(2), 1);
        let opts = CalcOptions::default();
        let f0 = instance_fingerprint(&net, &d, &opts);
        assert_eq!(f0, instance_fingerprint(&net, &d, &opts), "deterministic");
        let d2 = FlowDemand::new(NodeId(0), NodeId(2), 2);
        assert_ne!(f0, instance_fingerprint(&net, &d2, &opts));
        let opts2 = CalcOptions {
            factor_perfect_links: false,
            ..Default::default()
        };
        assert_ne!(f0, instance_fingerprint(&net, &d, &opts2));
        let mut b2 = NetworkBuilder::new(GraphKind::Directed);
        let n2 = b2.add_nodes(3);
        b2.add_edge(n2[0], n2[1], 1, 0.1).unwrap();
        b2.add_edge(n2[1], n2[2], 2, 0.25).unwrap();
        let net2 = b2.build();
        assert_ne!(f0, instance_fingerprint(&net2, &d, &opts));
    }
}
