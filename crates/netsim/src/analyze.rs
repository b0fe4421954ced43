//! Whole-program static schedule analysis: deadlock, notification
//! conservation, and one-sided buffer races — without simulating time.
//!
//! The GASPI collectives in this repository are one-sided: a put lands in a
//! remote buffer with no matching receive, so a wrong schedule fails
//! *silently* (lost updates, stale reads) or hangs (a wait whose
//! notifications never arrive).  [`mod@crate::validate`] catches local per-op
//! mistakes; this module proves global properties of the whole schedule
//! before the engine spends a single virtual nanosecond on it:
//!
//! 1. **Deadlock / starvation** — an abstract, timeless execution over
//!    per-(rank, notify-id) notification budgets.  Every notification is
//!    assumed to arrive the instant it is issued (the most optimistic
//!    schedule), so a wait that still cannot be satisfied when the abstract
//!    execution stalls is blocked on suppliers that are themselves
//!    transitively blocked: a cross-rank wait-for cycle.  A wait whose
//!    demand exceeds the *total* possible production for an id is reported
//!    separately as [`AnalysisError::Starvation`] — a terminal deficit no
//!    interleaving can repair.
//! 2. **Notification conservation** — notifications produced but never
//!    consumable ([`AnalysisError::NotificationLeak`]) and waits that can
//!    under-consume relative to a worst-case arrival interleaving
//!    ([`AnalysisError::ConsumptionRace`]): a `WaitNotifyAny` with
//!    `count < ids.len()` may drain an arrival a later wait depends on,
//!    depending purely on arrival order.
//! 3. **One-sided buffer races** — the op IR carries no segment offsets, so
//!    the landing slot of a put is identified by its `(destination rank,
//!    notification id)` pair, which is exactly how the paper's collectives
//!    address their slots.  Flagged: the same slot written by two different
//!    ranks ([`AnalysisError::MultiWriterRace`]), a writer reusing a slot
//!    without an intervening acknowledgement chain ordering the reuse after
//!    the reader's consumption ([`AnalysisError::UnsyncedSlotReuse`]), and a
//!    payload that is never waited on at all before the program ends
//!    ([`AnalysisError::UnsyncedPayloadRead`]) — data that lands but is
//!    never safe to read.
//!
//! ## Complexity: per unique segment, not per rank
//!
//! All three analyses run on the [`CompiledProgram`] arena of PR 7, which
//! stores each distinct rank-relative op stream **once**.  Ranks sharing a
//! segment are grouped into *classes*; classes are further split into
//! *pieces* — maximal rank intervals whose incoming supply (which producer
//! op feeds which notification id, and how many times) is uniform — by
//! interval arithmetic over the rank space: a delta-coded put from a class
//! covering `[lo, hi)` supplies `[lo+c, hi+c) mod p` (at most two
//! intervals), and an xor-coded put resolves by decomposing `[lo, hi)`
//! into aligned power-of-two blocks, each of which xor maps onto one
//! aligned block of the same size (at most `O(log p)` intervals — never a
//! per-rank enumeration).  Every per-op check then runs once per piece
//! instead of once per rank, so the p = 2^20 windowed ring — two shared
//! segments, three pieces — is analyzed in the time and memory of a
//! handful of ranks: `O(unique segment ops + supply edges + p)` (the `p`
//! term is the single scan of the rank→segment table; nothing else is
//! per-rank).  The one exception is the `certain` classification of an
//! already-found deadlock, which sweeps the stalled pieces to a second
//! fixpoint: clean schedules never pay for it, and its work is bounded
//! by the residual (unexecuted) ops of the blocked pieces per sweep.
//!
//! ## Soundness and approximation
//!
//! The abstract execution advances each piece as one representative rank
//! in lockstep and gates remote supply on the *minimum* cursor over the
//! producing class's pieces — supply is never assumed available before
//! every rank of the producing class could have issued it.  Completion of
//! the abstract execution therefore implies the engine completes (the
//! engine's schedule is one of the interleavings the optimistic semantics
//! dominates).
//!
//! Lockstep alone is too coarse for one legitimate pattern: a pipeline
//! *within* one segment, where every rank of a piece waits on supply from
//! an earlier (or later) rank of the same interned segment — rank 0 puts,
//! rank r waits for r−1 and forwards.  Rank by rank the chain drains, but
//! no piece can take the first step as a unit.  When the execution stalls,
//! such pieces are discharged by *pipeline certificates*: a rank-order
//! induction (ascending or descending) that admits in-piece supply from
//! ranks strictly on the hypothesis side once the boundary ranks' external
//! writers have individually passed the producing op, re-runs the
//! representative under that hypothesis, and commits its progress.  A full
//! completion commits unconditionally; a prefix commit to cursor `k`
//! additionally requires every inductively-supplied producing op consumed
//! so far to lie below `k` (the hypothesis "every rank reaches op `k`"
//! produces nothing beyond `k`).
//!
//! A stall that survives certification is reported as a deadlock.  It is
//! `certain` only when (a) consumption is deterministic for every piece
//! that could still run — no class of an incomplete piece contains a
//! `WaitNotifyAny` demanding less than its full id set (which ids such a
//! wait drains depends on arrival order; completed pieces are exempt,
//! since whatever a finished piece chose to consume it produced everything
//! it can) — and (b) the residual stalls under every arrival order: the
//! stalled state is re-run to fixpoint under the *over*-approximating
//! per-rank gate (a supply edge is granted as soon as any rank in its
//! writer interval individually passed the producing op, and a grant
//! unblocks the whole piece), and even that run leaves a piece
//! incomplete.  Every concrete order's progress lies pointwise below that
//! fixpoint, so its stall makes the deadlock order-independent; if it
//! completes instead, some rank might proceed where the lockstep quotient
//! cannot, and the deadlock is reported with
//! `certain: false`.  Blocking `Send` is modeled eagerly (non-blocking):
//! whether a rendezvous handshake blocks is a property of the cost model's
//! eager threshold, not of the schedule.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::cluster::RankId;
use crate::compiled::{decode_target, CompiledProgram, OpKind, TargetMode};
use crate::program::{NotifyId, Program};
use crate::semantics;
use crate::source::ProgramSource;
use crate::validate::ValidationError;

/// A defect found by the static analyzer.
///
/// Each error names a *representative* rank; `ranks_affected` counts how
/// many ranks of the same equivalence class exhibit the identical defect
/// (the analyzer never enumerates them individually).
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// A wait demands more arrivals of an id than the whole program can
    /// ever produce for this rank — no interleaving satisfies it.
    Starvation {
        /// Representative blocked rank.
        rank: RankId,
        /// Program-order index of the blocked wait.
        op_index: usize,
        /// The starved notification id.
        id: NotifyId,
        /// Arrivals of `id` this rank's waits consume up to and including
        /// the blocked one.
        required: u64,
        /// Total arrivals of `id` the program can deliver to this rank.
        produced: u64,
        /// Ranks of the same class with the identical deficit.
        ranks_affected: usize,
    },
    /// The abstract execution stalled with ranks blocked on waits whose
    /// remaining suppliers are transitively blocked: a cross-rank wait-for
    /// cycle.
    Deadlock {
        /// One entry per blocked piece: representative rank, op index, and
        /// a description of what it waits for.
        blocked: Vec<BlockedWait>,
        /// True when the stall is provably a deadlock under every arrival
        /// order: consumption is deterministic for every piece that could
        /// still run (no partial `WaitNotifyAny` in an incomplete piece's
        /// class) and no individual rank can make progress the lockstep
        /// abstraction missed (see the module docs).  Otherwise the
        /// deadlock is reachable only under some arrival orders.
        certain: bool,
    },
    /// Notifications produced for a rank that no wait can ever consume.
    NotificationLeak {
        /// Receiving rank (representative).
        rank: RankId,
        /// The leaked notification id.
        id: NotifyId,
        /// Arrivals of `id` delivered to this rank.
        produced: u64,
        /// Maximum arrivals of `id` this rank's waits can consume.
        consumable: u64,
        /// Ranks of the same class with the identical leak.
        ranks_affected: usize,
    },
    /// A wait can be starved by an adversarial arrival order: earlier
    /// partial `WaitNotifyAny` ops may drain the arrivals it needs.
    ConsumptionRace {
        /// Representative rank.
        rank: RankId,
        /// Program-order index of the endangered wait.
        op_index: usize,
        /// The id that can be drained from under it.
        id: NotifyId,
        /// Arrivals of `id` left in the worst case when the wait runs
        /// (zero or negative means it can starve).
        worst_case_available: i64,
        /// Ranks of the same class with the identical race.
        ranks_affected: usize,
    },
    /// Two different ranks put payloads into the same `(rank, notify-id)`
    /// landing slot: the second arrival overwrites the first regardless of
    /// arrival order.
    MultiWriterRace {
        /// Receiving rank (representative) whose slot is contested.
        rank: RankId,
        /// The contested slot's notification id.
        id: NotifyId,
        /// One contending writer.
        writer_a: RankId,
        /// Another contending writer.
        writer_b: RankId,
        /// Ranks of the same class with the identically contested slot.
        ranks_affected: usize,
    },
    /// A writer puts twice into the same remote slot with no
    /// acknowledgement chain ordering the reuse after the reader's
    /// consumption of the first payload — the second put can overwrite
    /// unread data.
    UnsyncedSlotReuse {
        /// The reusing writer (representative).
        writer: RankId,
        /// The slot's owning rank.
        rank: RankId,
        /// The reused slot's notification id.
        id: NotifyId,
        /// Op index of the first put in the writer's program.
        first_put: usize,
        /// Op index of the overwriting put.
        second_put: usize,
        /// Ranks of the same class with the identical reuse.
        ranks_affected: usize,
    },
    /// A payload lands in a slot its owner never waits on: the data is
    /// never ordered before any read and is silently unusable.
    UnsyncedPayloadRead {
        /// The slot's owning rank (representative).
        rank: RankId,
        /// The never-awaited slot's notification id.
        id: NotifyId,
        /// The rank whose payload is lost.
        writer: RankId,
        /// Ranks of the same class with the identical lost payload.
        ranks_affected: usize,
    },
}

/// One blocked piece in a [`AnalysisError::Deadlock`] report.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedWait {
    /// Representative rank of the blocked piece.
    pub rank: RankId,
    /// Program-order index of the blocked op.
    pub op_index: usize,
    /// Human-readable description of what the op waits for.
    pub what: String,
    /// Ranks of the same class blocked identically.
    pub ranks_affected: usize,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Starvation { rank, op_index, id, required, produced, ranks_affected } => write!(
                f,
                "starvation: rank {rank} (x{ranks_affected}) op {op_index} needs {required} arrival(s) of \
                 notification {id} but the program produces only {produced}"
            ),
            AnalysisError::Deadlock { blocked, certain } => {
                write!(f, "{} deadlock; blocked:", if *certain { "certain" } else { "possible" })?;
                for b in blocked {
                    write!(f, " [rank {} (x{}) at op {}: {}]", b.rank, b.ranks_affected, b.op_index, b.what)?;
                }
                Ok(())
            }
            AnalysisError::NotificationLeak { rank, id, produced, consumable, ranks_affected } => write!(
                f,
                "notification leak: rank {rank} (x{ranks_affected}) receives {produced} arrival(s) of \
                 notification {id} but can consume at most {consumable}"
            ),
            AnalysisError::ConsumptionRace { rank, op_index, id, worst_case_available, ranks_affected } => write!(
                f,
                "consumption race: rank {rank} (x{ranks_affected}) op {op_index} waits on notification {id} \
                 but an adversarial arrival order leaves only {worst_case_available} arrival(s) for it"
            ),
            AnalysisError::MultiWriterRace { rank, id, writer_a, writer_b, ranks_affected } => write!(
                f,
                "buffer race: ranks {writer_a} and {writer_b} both put payloads into slot (rank {rank} \
                 (x{ranks_affected}), notification {id})"
            ),
            AnalysisError::UnsyncedSlotReuse { writer, rank, id, first_put, second_put, ranks_affected } => write!(
                f,
                "buffer race: rank {writer} (x{ranks_affected}) reuses slot (rank {rank}, notification {id}) \
                 at op {second_put} with no acknowledgement ordering it after the consumption of op {first_put}"
            ),
            AnalysisError::UnsyncedPayloadRead { rank, id, writer, ranks_affected } => write!(
                f,
                "buffer race: the payload rank {writer} puts into slot (rank {rank} (x{ranks_affected}), \
                 notification {id}) is never waited on and can never be safely read"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Result of analyzing a program: the defects found plus the structural
/// statistics backing the complexity claim.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Every defect found, in analysis order (conservation, races,
    /// deadlock).
    pub errors: Vec<AnalysisError>,
    /// Rank equivalence classes (= unique `(segment, decode-mode)` pairs).
    pub classes: usize,
    /// Supply-uniform rank intervals actually analyzed.
    pub pieces: usize,
    /// Ranks covered by the analysis.
    pub num_ranks: usize,
}

impl AnalysisReport {
    /// True when no defect of any class was found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// True when no deadlock or starvation was found (the schedule
    /// completes under every arrival order the analysis certifies).
    pub fn is_deadlock_free(&self) -> bool {
        !self.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { .. } | AnalysisError::Starvation { .. }))
    }
}

/// Analyze an already-compiled program (see the [module docs](self)).
pub fn analyze_compiled(prog: &CompiledProgram) -> AnalysisReport {
    Analyzer::new(prog).run()
}

/// Compile (which validates) and analyze a materialized program.
///
/// ```
/// use ec_netsim::{analyze, ProgramBuilder};
///
/// // Rank 0 puts at rank 1, which waits for the notification: clean.
/// let mut b = ProgramBuilder::new(2);
/// b.put_notify(0, 1, 1024, 7);
/// b.wait_notify(1, &[7]);
/// assert!(analyze(&b.build()).unwrap().is_clean());
///
/// // Remove the put and the wait can never be satisfied: starvation.
/// let mut b = ProgramBuilder::new(2);
/// b.wait_notify(1, &[7]);
/// let report = analyze(&b.build()).unwrap();
/// assert!(!report.is_deadlock_free());
/// ```
pub fn analyze(program: &Program) -> Result<AnalysisReport, ValidationError> {
    Ok(analyze_compiled(&program.compile()?))
}

/// Compile (which validates) and analyze a symbolic program source without
/// materializing all ranks.
pub fn analyze_source<S: ProgramSource>(source: &S) -> Result<AnalysisReport, ValidationError> {
    Ok(analyze_compiled(&CompiledProgram::from_source(source)?))
}

/// A maximal run of ranks sharing one arena segment, as `[lo, hi)`
/// intervals of the rank space.
#[derive(Debug)]
struct Class {
    start: usize,
    len: usize,
    mode: TargetMode,
    ivs: Vec<(usize, usize)>,
    piece_idx: Vec<usize>,
}

/// One incoming supply edge of a piece: `count` arrivals per receiving
/// rank, produced by op `op` of class `class`.
#[derive(Debug, Clone, Copy)]
struct Supply {
    class: u32,
    op: u32,
    count: u64,
    /// Raw target code of the producing op (recovers the writer rank).
    code: u32,
    mode: TargetMode,
    payload: bool,
}

/// A rank interval with a uniform segment *and* uniform incoming supply.
#[derive(Debug)]
struct Piece {
    lo: usize,
    hi: usize,
    class: u32,
    /// Notification supply: id → producing edges.
    notify: HashMap<NotifyId, Vec<Supply>>,
    /// Two-sided message supply: (source rank of the representative, tag)
    /// → producing edges.
    msgs: HashMap<(RankId, u32), Vec<Supply>>,
}

impl Piece {
    fn ranks(&self) -> usize {
        self.hi - self.lo
    }

    /// The rank whose decoded view stands for every rank of the piece.
    fn rep(&self) -> RankId {
        self.lo
    }
}

/// The writer rank whose op with target code `code` reaches receiver `r`.
fn writer_of(r: RankId, code: u32, mode: TargetMode, n: usize) -> RankId {
    match mode {
        TargetMode::Delta => (r + n - code as usize % n) % n,
        TargetMode::Xor => r ^ code as usize,
    }
}

/// Append `[lo, hi) + c (mod n)` to `out` as up to two normalized
/// intervals.
fn shift_interval(lo: usize, hi: usize, c: usize, n: usize, out: &mut Vec<(usize, usize)>) {
    debug_assert!(lo < hi && hi <= n);
    let a = (lo + c) % n;
    let len = hi - lo;
    if a + len <= n {
        out.push((a, a + len));
    } else {
        out.push((a, n));
        out.push((0, a + len - n));
    }
}

/// Receiver intervals of an op with target `code` issued by every rank in
/// `[lo, hi)`.  Delta codes rotate the interval (at most two intervals).
/// Xor codes are resolved by decomposing `[lo, hi)` into aligned
/// power-of-two blocks: xor by any code maps an aligned block `[b, b+2^k)`
/// (with `2^k | b`) onto the aligned block of the same size whose high bits
/// are `b ^ code` — so an arbitrary interval yields at most
/// `O(log(hi - lo))` receiver intervals, never a per-rank enumeration.
fn receiver_intervals(lo: usize, hi: usize, code: u32, mode: TargetMode, n: usize, out: &mut Vec<(usize, usize)>) {
    match mode {
        TargetMode::Delta => shift_interval(lo, hi, code as usize % n, n, out),
        TargetMode::Xor => {
            let code = code as usize;
            let mut a = lo;
            while a < hi {
                // Largest power-of-two block starting at `a` that both
                // respects `a`'s alignment and fits inside `[a, hi)`.
                let align = if a == 0 { hi - a } else { a & a.wrapping_neg() };
                let fit = align.min(hi - a);
                let size = 1usize << (usize::BITS - 1 - fit.leading_zeros());
                let b = (a ^ code) & !(size - 1);
                out.push((b, b + size));
                a += size;
            }
        }
    }
}

/// What a piece's abstract execution is currently blocked on.
#[derive(Debug, Clone, PartialEq)]
enum Stuck {
    /// Done: every op executed.
    Done,
    /// Runnable (or not yet inspected).
    Ready,
    /// A notification wait that cannot be satisfied yet.
    Wait,
    /// A receive with no matching message available yet.
    Recv,
    /// Parked at a barrier.
    Barrier,
}

#[derive(Clone)]
struct PieceState {
    cursor: usize,
    stuck: Stuck,
    consumed: HashMap<NotifyId, u64>,
    msgs_consumed: HashMap<(RankId, u32), u64>,
}

struct Analyzer<'a> {
    prog: &'a CompiledProgram,
    n: usize,
    classes: Vec<Class>,
    pieces: Vec<Piece>,
    /// Sorted piece boundaries (`pieces[i].lo`), for rank → piece lookup.
    piece_starts: Vec<usize>,
    /// Per class (indexed by class id): does any of the class's ops demand
    /// `WaitNotifyAny` with `count < ids.len()`?  Consumption is
    /// nondeterministic exactly for those classes, so a reported deadlock
    /// is only `certain` when no *still-incomplete* piece belongs to one.
    partial_any: Vec<bool>,
    errors: Vec<AnalysisError>,
}

impl<'a> Analyzer<'a> {
    fn new(prog: &'a CompiledProgram) -> Self {
        Self {
            prog,
            n: prog.num_ranks(),
            classes: Vec::new(),
            pieces: Vec::new(),
            piece_starts: Vec::new(),
            partial_any: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn run(mut self) -> AnalysisReport {
        self.build_classes();
        self.build_pieces();
        self.conservation_and_races();
        self.abstract_execution();
        AnalysisReport {
            errors: self.errors,
            classes: self.classes.len(),
            pieces: self.pieces.len(),
            num_ranks: self.n,
        }
    }

    /// Group ranks into classes by their `(segment, decode-mode)` entry —
    /// the only per-rank scan in the whole analysis.
    fn build_classes(&mut self) {
        let mut index: HashMap<(usize, usize, TargetMode), usize> = HashMap::new();
        for rank in 0..self.n {
            let key = self.prog.raw_entry(rank);
            match index.entry(key) {
                Entry::Occupied(e) => {
                    let class = &mut self.classes[*e.get()];
                    let last = class.ivs.last_mut().expect("classes always hold an interval");
                    if last.1 == rank {
                        last.1 = rank + 1;
                    } else {
                        class.ivs.push((rank, rank + 1));
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(self.classes.len());
                    self.classes.push(Class {
                        start: key.0,
                        len: key.1,
                        mode: key.2,
                        ivs: vec![(rank, rank + 1)],
                        piece_idx: Vec::new(),
                    });
                }
            }
        }
    }

    /// Split classes into supply-uniform pieces and attribute every
    /// producing op's arrivals to the pieces it reaches.
    fn build_pieces(&mut self) {
        // Gather production edges: (receiver interval, id-or-tag key,
        // producing class/op, payload?).  `scratch` reuses one allocation
        // for the receiver-interval arithmetic.
        struct Contribution {
            lo: usize,
            hi: usize,
            notify: Option<NotifyId>,
            tag: u32,
            supply: Supply,
        }
        let mut contributions: Vec<Contribution> = Vec::new();
        let mut scratch: Vec<(usize, usize)> = Vec::new();
        self.partial_any = vec![false; self.classes.len()];
        for (ci, class) in self.classes.iter().enumerate() {
            for op in 0..class.len {
                let (kind, a, b, _c) = self.prog.raw_op(class.start + op);
                let (notify, tag, payload) = match kind {
                    OpKind::PutNotify => (Some(b), 0, true),
                    OpKind::Notify => (Some(b), 0, false),
                    OpKind::Send | OpKind::Isend => (None, b, false),
                    OpKind::WaitAny => {
                        let count = _c as usize;
                        if count < b as usize {
                            self.partial_any[ci] = true;
                        }
                        continue;
                    }
                    _ => continue,
                };
                let supply = Supply { class: ci as u32, op: op as u32, count: 1, code: a, mode: class.mode, payload };
                for &(lo, hi) in &class.ivs {
                    scratch.clear();
                    receiver_intervals(lo, hi, a, class.mode, self.n, &mut scratch);
                    for &(rlo, rhi) in &scratch {
                        contributions.push(Contribution { lo: rlo, hi: rhi, notify, tag, supply });
                    }
                }
            }
        }

        // Piece boundaries: class interval bounds plus contribution bounds.
        let mut bounds: Vec<usize> = Vec::new();
        for class in &self.classes {
            for &(lo, hi) in &class.ivs {
                bounds.push(lo);
                bounds.push(hi);
            }
        }
        for c in &contributions {
            bounds.push(c.lo);
            bounds.push(c.hi);
        }
        bounds.sort_unstable();
        bounds.dedup();

        // Build pieces (atomic intervals within one class interval).
        let class_of = {
            // Sorted (lo, hi, class) triples for binary search.
            let mut spans: Vec<(usize, usize, u32)> = Vec::new();
            for (ci, class) in self.classes.iter().enumerate() {
                for &(lo, hi) in &class.ivs {
                    spans.push((lo, hi, ci as u32));
                }
            }
            spans.sort_unstable();
            spans
        };
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if lo >= self.n {
                break;
            }
            let i = class_of.partition_point(|&(s, _, _)| s <= lo) - 1;
            let (_, span_hi, ci) = class_of[i];
            debug_assert!(hi <= span_hi, "piece [{lo},{hi}) crosses a class boundary");
            let pi = self.pieces.len();
            self.classes[ci as usize].piece_idx.push(pi);
            self.pieces.push(Piece { lo, hi, class: ci, notify: HashMap::new(), msgs: HashMap::new() });
        }
        self.piece_starts = self.pieces.iter().map(|p| p.lo).collect();

        // Attribute contributions: every contribution covers a whole run of
        // pieces by construction.
        for c in &contributions {
            let mut pi = self.piece_starts.partition_point(|&s| s <= c.lo) - 1;
            while pi < self.pieces.len() && self.pieces[pi].lo < c.hi {
                let piece = &mut self.pieces[pi];
                debug_assert!(piece.lo >= c.lo && piece.hi <= c.hi);
                if let Some(id) = c.notify {
                    push_supply(piece.notify.entry(id).or_default(), c.supply);
                } else {
                    let src = writer_of(piece.rep(), c.supply.code, c.supply.mode, self.n);
                    push_supply(piece.msgs.entry((src, c.tag)).or_default(), c.supply);
                }
                pi += 1;
            }
        }
    }

    /// Fill `buf` with the wait-id list of the op at arena index `idx`
    /// (empty for non-wait ops) and return how many distinct ids the op
    /// must consume.
    fn wait_ids(&self, idx: usize, buf: &mut Vec<NotifyId>) -> usize {
        buf.clear();
        let (kind, a, b, c) = self.prog.raw_op(idx);
        match kind {
            OpKind::WaitOne => {
                buf.push(a);
                1
            }
            OpKind::WaitMany => {
                buf.extend_from_slice(self.prog.pool_ids(a, b));
                b as usize
            }
            OpKind::WaitAny => {
                buf.extend_from_slice(self.prog.pool_ids(a, b));
                c as usize
            }
            _ => 0,
        }
    }

    /// Analysis 2 + 3: per-piece budget walk (leaks, terminal deficits,
    /// adversarial-order consumption races) and slot-identity race checks.
    fn conservation_and_races(&mut self) {
        let mut errors = Vec::new();
        for piece in &self.pieces {
            let class = &self.classes[piece.class as usize];
            let rep = piece.rep();
            let total: HashMap<NotifyId, u64> =
                piece.notify.iter().map(|(&id, srcs)| (id, srcs.iter().map(|s| s.count).sum())).collect();

            // One in-order walk: mandatory and optional consumption per id.
            let mut mand: HashMap<NotifyId, u64> = HashMap::new();
            let mut opt: HashMap<NotifyId, u64> = HashMap::new();
            let mut first_wait: HashMap<NotifyId, usize> = HashMap::new();
            let mut wids: Vec<NotifyId> = Vec::new();
            for op in 0..class.len {
                let idx = class.start + op;
                let (kind, _, _, _) = self.prog.raw_op(idx);
                if !matches!(kind, OpKind::WaitOne | OpKind::WaitMany | OpKind::WaitAny) {
                    continue;
                }
                let count = self.wait_ids(idx, &mut wids);
                let partial = kind == OpKind::WaitAny && count < wids.len();
                if partial {
                    // Worst case the any-wait cannot find `count` distinct
                    // available ids.
                    let worst_avail = wids
                        .iter()
                        .filter(|&&id| {
                            let t = total.get(&id).copied().unwrap_or(0) as i64;
                            t - mand.get(&id).copied().unwrap_or(0) as i64 - opt.get(&id).copied().unwrap_or(0) as i64
                                >= 1
                        })
                        .count();
                    let best_avail = wids
                        .iter()
                        .filter(|&&id| total.get(&id).copied().unwrap_or(0) > mand.get(&id).copied().unwrap_or(0))
                        .count();
                    if best_avail >= count && worst_avail < count {
                        // Name an id that is actually endangered: available
                        // under some arrival order (counted by `best_avail`)
                        // but drained away in the worst case.
                        let endangered = wids
                            .iter()
                            .copied()
                            .find(|&id| {
                                let t = total.get(&id).copied().unwrap_or(0) as i64;
                                let m = mand.get(&id).copied().unwrap_or(0) as i64;
                                let o = opt.get(&id).copied().unwrap_or(0) as i64;
                                t > m && t - m - o < 1
                            })
                            .unwrap_or(wids[0]);
                        errors.push(AnalysisError::ConsumptionRace {
                            rank: rep,
                            op_index: op,
                            id: endangered,
                            worst_case_available: worst_avail as i64 - count as i64,
                            ranks_affected: piece.ranks(),
                        });
                    }
                    for &id in &wids {
                        *opt.entry(id).or_insert(0) += 1;
                        first_wait.entry(id).or_insert(op);
                    }
                } else {
                    for &id in &wids {
                        let t = total.get(&id).copied().unwrap_or(0);
                        let m = mand.get(&id).copied().unwrap_or(0);
                        let o = opt.get(&id).copied().unwrap_or(0);
                        if t < m + 1 {
                            errors.push(AnalysisError::Starvation {
                                rank: rep,
                                op_index: op,
                                id,
                                required: m + 1,
                                produced: t,
                                ranks_affected: piece.ranks(),
                            });
                        } else if (t as i64) - (m as i64) - (o as i64) < 1 {
                            errors.push(AnalysisError::ConsumptionRace {
                                rank: rep,
                                op_index: op,
                                id,
                                worst_case_available: t as i64 - m as i64 - o as i64,
                                ranks_affected: piece.ranks(),
                            });
                        }
                        *mand.entry(id).or_insert(0) += 1;
                        first_wait.entry(id).or_insert(op);
                    }
                }
            }

            // Conservation: produced beyond what the waits can consume.
            let mut ids: Vec<NotifyId> = total.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let t = total[&id];
                let consumable = mand.get(&id).copied().unwrap_or(0) + opt.get(&id).copied().unwrap_or(0);
                if t > consumable {
                    let payload_writers = self.payload_writers(piece, id);
                    if consumable == 0 && !payload_writers.is_empty() {
                        errors.push(AnalysisError::UnsyncedPayloadRead {
                            rank: rep,
                            id,
                            writer: payload_writers[0].0,
                            ranks_affected: piece.ranks(),
                        });
                    } else {
                        errors.push(AnalysisError::NotificationLeak {
                            rank: rep,
                            id,
                            produced: t,
                            consumable,
                            ranks_affected: piece.ranks(),
                        });
                    }
                }
            }

            // Slot races: distinct writers, and same-writer reuse without
            // an acknowledgement chain.
            let mut slot_ids: Vec<NotifyId> = piece.notify.keys().copied().collect();
            slot_ids.sort_unstable();
            for id in slot_ids {
                let writers = self.payload_writers(piece, id);
                if writers.is_empty() {
                    continue;
                }
                if let Some(w) = writers.windows(2).find(|w| w[0].0 != w[1].0) {
                    errors.push(AnalysisError::MultiWriterRace {
                        rank: rep,
                        id,
                        writer_a: w[0].0,
                        writer_b: w[1].0,
                        ranks_affected: piece.ranks(),
                    });
                }
                // Same writer, two puts: the second must be ordered after
                // the reader consumed the first.
                for w in writers.windows(2).filter(|w| w[0].0 == w[1].0) {
                    let (writer, first_op) = w[0];
                    let second_op = w[1].1;
                    if !self.ack_chain_exists(writer, first_op, second_op, rep, first_wait.get(&id).copied()) {
                        errors.push(AnalysisError::UnsyncedSlotReuse {
                            writer,
                            rank: rep,
                            id,
                            first_put: first_op,
                            second_put: second_op,
                            ranks_affected: piece.ranks(),
                        });
                    }
                }
            }
        }
        self.errors.extend(errors);
    }

    /// Payload-carrying writers of slot `(piece, id)` as sorted
    /// `(writer rank, producing op index)` pairs.
    fn payload_writers(&self, piece: &Piece, id: NotifyId) -> Vec<(RankId, usize)> {
        let mut writers: Vec<(RankId, usize)> = piece
            .notify
            .get(&id)
            .map(|srcs| {
                srcs.iter()
                    .filter(|s| s.payload)
                    .map(|s| (writer_of(piece.rep(), s.code, s.mode, self.n), s.op as usize))
                    .collect()
            })
            .unwrap_or_default();
        writers.sort_unstable();
        writers
    }

    /// True when `writer` waits, between its two puts, on a notification
    /// the reader (`reader_rep`'s class) produces only after consuming the
    /// first put — a one-hop acknowledgement chain making the slot reuse
    /// safe.  `consume_at` is the reader's first wait on the reused id.
    fn ack_chain_exists(
        &self,
        writer: RankId,
        first_put: usize,
        second_put: usize,
        reader_rep: RankId,
        consume_at: Option<usize>,
    ) -> bool {
        let Some(consume_at) = consume_at else {
            return false; // Never consumed: reuse is unsynchronized.
        };
        let reader_class = {
            let pi = self.piece_starts.partition_point(|&s| s <= reader_rep) - 1;
            self.pieces[pi].class
        };
        let wpi = self.piece_starts.partition_point(|&s| s <= writer) - 1;
        let wpiece = &self.pieces[wpi];
        let wclass = &self.classes[wpiece.class as usize];
        let mut wids: Vec<NotifyId> = Vec::new();
        for op in first_put + 1..second_put {
            let idx = wclass.start + op;
            let (kind, _, _, _) = self.prog.raw_op(idx);
            if !matches!(kind, OpKind::WaitOne | OpKind::WaitMany | OpKind::WaitAny) {
                continue;
            }
            self.wait_ids(idx, &mut wids);
            for &ack in &wids {
                let Some(srcs) = wpiece.notify.get(&ack) else { continue };
                if srcs.iter().any(|s| s.class == reader_class && s.op as usize > consume_at) {
                    return true;
                }
            }
        }
        false
    }

    /// Analysis 1: timeless optimistic execution over the piece quotient.
    fn abstract_execution(&mut self) {
        let n_pieces = self.pieces.len();
        let mut state: Vec<PieceState> = (0..n_pieces)
            .map(|_| PieceState {
                cursor: 0,
                stuck: Stuck::Ready,
                consumed: HashMap::new(),
                msgs_consumed: HashMap::new(),
            })
            .collect();
        // Per class: minimum cursor over its pieces, plus the sorted wake
        // list (producing op → dependent piece) with a monotone pointer.
        let n_classes = self.classes.len();
        let mut class_min: Vec<usize> = vec![0; n_classes];
        let mut wake: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_classes];
        for (pi, piece) in self.pieces.iter().enumerate() {
            for srcs in piece.notify.values().chain(piece.msgs.values()) {
                for s in srcs {
                    wake[s.class as usize].push((s.op, pi as u32));
                }
            }
        }
        for w in &mut wake {
            w.sort_unstable();
            w.dedup();
        }
        let mut wake_ptr: Vec<usize> = vec![0; n_classes];

        let mut queue: VecDeque<usize> = (0..n_pieces).collect();
        let mut in_queue: Vec<bool> = vec![true; n_pieces];
        let mut at_barrier: usize = 0;
        let mut wids: Vec<NotifyId> = Vec::new();

        'fixpoint: loop {
            while let Some(pi) = queue.pop_front() {
                in_queue[pi] = false;
                let class_idx = self.pieces[pi].class as usize;
                let (start, len) = (self.classes[class_idx].start, self.classes[class_idx].len);
                let before = state[pi].cursor;
                if state[pi].stuck == Stuck::Barrier {
                    continue; // Only the barrier release path unparks these.
                }
                loop {
                    let cursor = state[pi].cursor;
                    if cursor >= len {
                        state[pi].stuck = Stuck::Done;
                        break;
                    }
                    let idx = start + cursor;
                    let (kind, a, b, _) = self.prog.raw_op(idx);
                    match kind {
                        OpKind::Compute
                        | OpKind::Reduce
                        | OpKind::Copy
                        | OpKind::PutNotify
                        | OpKind::Notify
                        | OpKind::Send
                        | OpKind::Isend
                        | OpKind::WaitAllSends => {
                            state[pi].cursor += 1;
                        }
                        OpKind::WaitOne | OpKind::WaitMany | OpKind::WaitAny => {
                            let count = self.wait_ids(idx, &mut wids);
                            let piece = &self.pieces[pi];
                            let satisfied = semantics::consume_wait(
                                &mut state[pi].consumed,
                                wids.iter().copied(),
                                count,
                                |consumed, id| self.avail(piece, consumed, id, &class_min) >= 1,
                                take_one,
                            );
                            if satisfied {
                                state[pi].cursor += 1;
                            } else {
                                state[pi].stuck = Stuck::Wait;
                                break;
                            }
                        }
                        OpKind::Recv => {
                            let piece = &self.pieces[pi];
                            let src = decode_target(piece.rep(), a, self.classes[class_idx].mode, self.n);
                            let key = (src, b);
                            let avail = piece.msgs.get(&key).map_or(0, |srcs| {
                                srcs.iter()
                                    .filter(|s| class_min[s.class as usize] > s.op as usize)
                                    .map(|s| s.count)
                                    .sum::<u64>()
                            });
                            let used = state[pi].msgs_consumed.get(&key).copied().unwrap_or(0);
                            if avail > used {
                                *state[pi].msgs_consumed.entry(key).or_insert(0) += 1;
                                state[pi].cursor += 1;
                            } else {
                                state[pi].stuck = Stuck::Recv;
                                break;
                            }
                        }
                        OpKind::Barrier => {
                            state[pi].stuck = Stuck::Barrier;
                            at_barrier += 1;
                            if at_barrier == n_pieces {
                                // Every rank is parked at a barrier: release.
                                at_barrier = 0;
                                for (qi, s) in state.iter_mut().enumerate() {
                                    debug_assert_eq!(s.stuck, Stuck::Barrier);
                                    s.cursor += 1;
                                    s.stuck = Stuck::Ready;
                                    if !in_queue[qi] {
                                        in_queue[qi] = true;
                                        queue.push_back(qi);
                                    }
                                }
                            }
                            break;
                        }
                    }
                }
                // Did this class's minimum cursor advance?  Wake dependents.
                if state[pi].cursor != before {
                    bump_class_min(
                        &self.classes,
                        &state,
                        &wake,
                        &mut wake_ptr,
                        &mut class_min,
                        &mut queue,
                        &mut in_queue,
                        class_idx,
                    );
                }
            }

            // The lockstep quotient stalled (or finished).  A pipeline *within*
            // one interned segment — every rank of a piece waiting on supply
            // from an earlier (or later) rank of the same segment — drains rank
            // by rank even though no piece can take the first step as a unit:
            // discharge such pieces by rank-order induction and resume.
            let mut progressed = false;
            for pi in 0..n_pieces {
                if !matches!(state[pi].stuck, Stuck::Wait | Stuck::Recv) {
                    continue;
                }
                let Some(commit) = self.pipeline_certificate(pi, &state, &class_min) else { continue };
                let s = &mut state[pi];
                s.cursor = commit.cursor;
                s.consumed = commit.consumed;
                s.msgs_consumed = commit.msgs_consumed;
                s.stuck = Stuck::Ready;
                if !in_queue[pi] {
                    in_queue[pi] = true;
                    queue.push_back(pi);
                }
                let ci = self.pieces[pi].class as usize;
                bump_class_min(
                    &self.classes,
                    &state,
                    &wake,
                    &mut wake_ptr,
                    &mut class_min,
                    &mut queue,
                    &mut in_queue,
                    ci,
                );
                progressed = true;
            }
            if !progressed {
                break 'fixpoint;
            }
        }

        // Stall diagnosis.
        let mut blocked = Vec::new();
        for (pi, s) in state.iter().enumerate() {
            if s.stuck == Stuck::Done {
                continue;
            }
            let piece = &self.pieces[pi];
            // Waits already reported as starvation by the budget walk are
            // not *additionally* a deadlock: the deficit alone explains the
            // stall.
            let starved = self.errors.iter().any(|e| {
                matches!(e, AnalysisError::Starvation { rank, op_index, .. }
                    if *rank == piece.rep() && *op_index == s.cursor)
            });
            if starved {
                continue;
            }
            let view = self.prog.rank_ops(piece.rep()).op(s.cursor);
            blocked.push(BlockedWait {
                rank: piece.rep(),
                op_index: s.cursor,
                what: format!("{view:?}"),
                ranks_affected: piece.ranks(),
            });
        }
        if !blocked.is_empty() {
            // `certain` needs two things.  Consumption must be deterministic
            // for every piece that could still run — a partial any-wait in a
            // *completed* piece cannot un-produce anything, so completed
            // pieces are exempt.  And the residual must stall under *every*
            // arrival order, which the lockstep stall alone cannot show:
            // re-run it under the over-approximating per-rank gate and
            // demand that even that run leaves some piece incomplete.
            let deterministic = state
                .iter()
                .enumerate()
                .all(|(pi, s)| s.stuck == Stuck::Done || !self.partial_any[self.pieces[pi].class as usize]);
            let certain = deterministic && self.residual_stalls_under_every_order(&state);
            self.errors.push(AnalysisError::Deadlock { blocked, certain });
        }
    }

    /// Unconsumed arrivals of `id` at `piece`, counting only supply whose
    /// producing op every rank of the producing class has passed.
    fn avail(&self, piece: &Piece, consumed: &HashMap<NotifyId, u64>, id: NotifyId, class_min: &[usize]) -> u64 {
        let produced: u64 = piece.notify.get(&id).map_or(0, |srcs| {
            srcs.iter().filter(|s| class_min[s.class as usize] > s.op as usize).map(|s| s.count).sum()
        });
        produced.saturating_sub(consumed.get(&id).copied().unwrap_or(0))
    }

    /// Try to advance a stalled piece by *rank-order induction* — the
    /// pipelined-chain pattern the lockstep quotient cannot express: every
    /// rank of the piece waits on supply from an earlier (ascending) or
    /// later (descending) rank of the same interned segment before
    /// producing its own.  See the module docs ("Soundness and
    /// approximation").
    fn pipeline_certificate(&self, pi: usize, state: &[PieceState], class_min: &[usize]) -> Option<CertCommit> {
        [Dir::Asc, Dir::Desc].into_iter().find_map(|dir| self.certificate_with(pi, dir, state, class_min))
    }

    /// One direction of [`Analyzer::pipeline_certificate`]: classify every
    /// supply edge of the piece, then re-run the representative's abstract
    /// execution under the induction hypothesis and commit its progress.
    ///
    /// Soundness is strong induction over the piece's ranks in `dir` order.
    /// Full completion commits unconditionally: rank `r` assumes every rank
    /// on the hypothesis side completed its *whole* segment, and the base
    /// ranks (whose writers fall outside the piece) were checked against
    /// the writers' actual cursors.  A prefix commit to cursor `k` proves
    /// only "every rank reaches op `k`", which produces just the ops below
    /// `k` — so it additionally requires every inductively-supplied
    /// producing op consumed so far to lie below `k`.
    fn certificate_with(&self, pi: usize, dir: Dir, state: &[PieceState], class_min: &[usize]) -> Option<CertCommit> {
        let piece = &self.pieces[pi];
        let class = &self.classes[piece.class as usize];

        let mut notify_sup: HashMap<NotifyId, CertSupply> = HashMap::new();
        for (&id, srcs) in &piece.notify {
            notify_sup.insert(id, self.cert_supply(piece, srcs, dir, state, class_min));
        }
        let mut msg_sup: HashMap<(RankId, u32), CertSupply> = HashMap::new();
        for (&key, srcs) in &piece.msgs {
            msg_sup.insert(key, self.cert_supply(piece, srcs, dir, state, class_min));
        }

        let start = state[pi].cursor;
        let mut cursor = start;
        let mut consumed = state[pi].consumed.clone();
        let mut msgs_consumed = state[pi].msgs_consumed.clone();
        // Largest inductively-supplied producing op relied upon so far.
        let mut inductive_bound: Option<usize> = None;
        let mut wids: Vec<NotifyId> = Vec::new();

        while cursor < class.len {
            let idx = class.start + cursor;
            let (kind, a, b, _) = self.prog.raw_op(idx);
            match kind {
                OpKind::Compute
                | OpKind::Reduce
                | OpKind::Copy
                | OpKind::PutNotify
                | OpKind::Notify
                | OpKind::Send
                | OpKind::Isend
                | OpKind::WaitAllSends => cursor += 1,
                OpKind::WaitOne | OpKind::WaitMany | OpKind::WaitAny => {
                    let count = self.wait_ids(idx, &mut wids);
                    let satisfied = semantics::consume_wait(
                        &mut consumed,
                        wids.iter().copied(),
                        count,
                        |consumed, id| {
                            notify_sup.get(&id).map_or(0, |cs| cs.avail) > consumed.get(&id).copied().unwrap_or(0)
                        },
                        |consumed, id| {
                            take_one(consumed, id);
                            if let Some(op) = notify_sup.get(&id).and_then(|cs| cs.inductive_op) {
                                inductive_bound = Some(inductive_bound.map_or(op, |m| m.max(op)));
                            }
                        },
                    );
                    if !satisfied {
                        break;
                    }
                    cursor += 1;
                }
                OpKind::Recv => {
                    let src = decode_target(piece.rep(), a, class.mode, self.n);
                    let key = (src, b);
                    let avail = msg_sup.get(&key).map_or(0, |cs| cs.avail);
                    if avail <= msgs_consumed.get(&key).copied().unwrap_or(0) {
                        break;
                    }
                    *msgs_consumed.entry(key).or_insert(0) += 1;
                    if let Some(op) = msg_sup.get(&key).and_then(|cs| cs.inductive_op) {
                        inductive_bound = Some(inductive_bound.map_or(op, |m| m.max(op)));
                    }
                    cursor += 1;
                }
                OpKind::Barrier => break,
            }
        }
        let complete = cursor >= class.len;
        let prefix_sound = inductive_bound.is_none_or(|op| op < cursor);
        if complete || (cursor > start && prefix_sound) {
            Some(CertCommit { cursor, consumed, msgs_consumed })
        } else {
            None
        }
    }

    /// Arrivals one key's supply edges contribute under the certificate:
    /// globally-produced and certified edges count in full; the largest
    /// producing op among inductive edges is kept for the prefix-commit
    /// soundness check.
    fn cert_supply(
        &self,
        piece: &Piece,
        srcs: &[Supply],
        dir: Dir,
        state: &[PieceState],
        class_min: &[usize],
    ) -> CertSupply {
        let mut cs = CertSupply { avail: 0, inductive_op: None };
        for s in srcs {
            let op = s.op as usize;
            if class_min[s.class as usize] > op {
                cs.avail += s.count;
                continue;
            }
            match self.certify_edge(piece, s, dir, state) {
                EdgeCert::External => cs.avail += s.count,
                EdgeCert::Inductive => {
                    cs.avail += s.count;
                    cs.inductive_op = Some(cs.inductive_op.map_or(op, |m| m.max(op)));
                }
                EdgeCert::No => {}
            }
        }
        cs
    }

    /// Classify one supply edge of `piece` that the class-minimum gate
    /// currently rejects.  In-piece writers are admissible only on the
    /// induction side of `dir` (strictly lower ranks for ascending,
    /// strictly higher for descending); every writer outside the piece must
    /// have individually passed the producing op.
    fn certify_edge(&self, piece: &Piece, s: &Supply, dir: Dir, state: &[PieceState]) -> EdgeCert {
        let n = self.n;
        let (lo, hi) = (piece.lo, piece.hi);
        let op = s.op as usize;
        match s.mode {
            TargetMode::Delta => {
                let c = s.code as usize % n;
                if c == 0 {
                    return EdgeCert::No;
                }
                let mut inductive = false;
                // Writers of the non-wrapped readers `[max(lo, c), hi)` sit
                // at `r - c`: strictly lower than their reader.
                if lo.max(c) < hi {
                    match self.span_cert(lo.max(c) - c, hi - c, lo, hi, dir == Dir::Asc, op, state) {
                        Some(ind) => inductive |= ind,
                        None => return EdgeCert::No,
                    }
                }
                // Writers of the wrapped readers `[lo, min(hi, c))` sit at
                // `r + n - c`: strictly higher than their reader.
                if lo < hi.min(c) {
                    match self.span_cert(lo + n - c, hi.min(c) + n - c, lo, hi, dir == Dir::Desc, op, state) {
                        Some(ind) => inductive |= ind,
                        None => return EdgeCert::No,
                    }
                }
                if inductive {
                    EdgeCert::Inductive
                } else {
                    EdgeCert::External
                }
            }
            TargetMode::Xor => {
                // Xor supply carries no rank order to induct over: certify
                // only when every writer block lies outside the piece and
                // has individually passed the op.
                let mut blocks = Vec::new();
                receiver_intervals(lo, hi, s.code, TargetMode::Xor, n, &mut blocks);
                for (wa, wb) in blocks {
                    if wa < hi && wb > lo {
                        return EdgeCert::No;
                    }
                    if !self.ranks_past_op(wa, wb, op, state) {
                        return EdgeCert::No;
                    }
                }
                EdgeCert::External
            }
        }
    }

    /// Certify the writer span `[wa, wb)` feeding piece `[lo, hi)`:
    /// in-piece writers are admissible only when `hypothesis_side` holds;
    /// writers outside the piece must each have passed op `op`.  Returns
    /// whether any in-piece writer was admitted (the edge turns inductive),
    /// or `None` when the span cannot be certified.
    #[allow(clippy::too_many_arguments)]
    fn span_cert(
        &self,
        wa: usize,
        wb: usize,
        lo: usize,
        hi: usize,
        hypothesis_side: bool,
        op: usize,
        state: &[PieceState],
    ) -> Option<bool> {
        let mut inductive = false;
        if wa.max(lo) < wb.min(hi) {
            if !hypothesis_side {
                return None;
            }
            inductive = true;
        }
        let (ea, eb) = (wa, wb.min(lo));
        if ea < eb && !self.ranks_past_op(ea, eb, op, state) {
            return None;
        }
        let (ea, eb) = (wa.max(hi), wb);
        if ea < eb && !self.ranks_past_op(ea, eb, op, state) {
            return None;
        }
        Some(inductive)
    }

    /// True when every rank in `[a, b)` belongs to a piece whose abstract
    /// cursor has passed op index `op` of its segment.
    fn ranks_past_op(&self, a: usize, b: usize, op: usize, state: &[PieceState]) -> bool {
        let mut qi = self.piece_starts.partition_point(|&s| s <= a) - 1;
        while qi < self.pieces.len() && self.pieces[qi].lo < b {
            if state[qi].cursor <= op {
                return false;
            }
            qi += 1;
        }
        true
    }

    /// True when any rank in `[a, b)` belongs to a piece whose abstract
    /// cursor has passed op index `op` of its segment.
    fn any_rank_past_op(&self, a: usize, b: usize, op: usize, state: &[PieceState]) -> bool {
        let mut qi = self.piece_starts.partition_point(|&s| s <= a) - 1;
        while qi < self.pieces.len() && self.pieces[qi].lo < b {
            if state[qi].cursor > op {
                return true;
            }
            qi += 1;
        }
        false
    }

    /// True when a supply edge of `piece` could deliver to *some* rank of
    /// the piece under *some* arrival order: any rank in the edge's writer
    /// interval (the inverse image of the piece under the edge's target
    /// map) has individually passed the producing op.
    fn edge_live_for_any_rank(
        &self,
        piece: &Piece,
        sup: &Supply,
        state: &[PieceState],
        spans: &mut Vec<(usize, usize)>,
    ) -> bool {
        spans.clear();
        match sup.mode {
            TargetMode::Delta => {
                let c = sup.code as usize % self.n;
                shift_interval(piece.lo, piece.hi, self.n - c, self.n, spans);
            }
            TargetMode::Xor => {
                receiver_intervals(piece.lo, piece.hi, sup.code, TargetMode::Xor, self.n, spans);
            }
        }
        spans.iter().any(|&(wa, wb)| self.any_rank_past_op(wa, wb, sup.op as usize, state))
    }

    /// Unconsumed arrivals of `id` at `piece` under the *optimistic* gate:
    /// an edge counts as soon as any rank in its writer interval has
    /// passed the producing op (the class-minimum gate is subsumed —
    /// `class_min > op` implies every writer passed it).
    fn avail_optimistic(
        &self,
        piece: &Piece,
        consumed: &HashMap<NotifyId, u64>,
        id: NotifyId,
        state: &[PieceState],
    ) -> u64 {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let produced: u64 = piece.notify.get(&id).map_or(0, |srcs| {
            srcs.iter().filter(|s| self.edge_live_for_any_rank(piece, s, state, &mut spans)).map(|s| s.count).sum()
        });
        produced.saturating_sub(consumed.get(&id).copied().unwrap_or(0))
    }

    /// True when the stalled residual state cannot complete under *any*
    /// arrival order — the condition for reporting the deadlock `certain`.
    ///
    /// The lockstep quotient under-approximates progress (the class-minimum
    /// gate holds whole classes back on their slowest piece), so its stall
    /// alone proves nothing about other interleavings.  This re-runs the
    /// residual to fixpoint under the opposite, *over*-approximating gate:
    /// a supply edge is granted the moment any rank in its writer interval
    /// is individually past the producing op, and a grant unblocks the
    /// whole piece.  Every concrete arrival order's progress is pointwise
    /// below this run's fixpoint, so if even it leaves a piece incomplete,
    /// every order does.  Only sound for deterministic consumption — the
    /// caller has already ruled out partial any-waits in live classes.
    fn residual_stalls_under_every_order(&self, residual: &[PieceState]) -> bool {
        let mut state: Vec<PieceState> = residual.to_vec();
        let mut wids: Vec<NotifyId> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        loop {
            let mut progressed = false;
            for pi in 0..self.pieces.len() {
                if matches!(state[pi].stuck, Stuck::Done | Stuck::Barrier) {
                    continue;
                }
                let piece = &self.pieces[pi];
                let class = &self.classes[piece.class as usize];
                loop {
                    let cursor = state[pi].cursor;
                    if cursor >= class.len {
                        state[pi].stuck = Stuck::Done;
                        break;
                    }
                    let idx = class.start + cursor;
                    let (kind, a, b, _) = self.prog.raw_op(idx);
                    match kind {
                        OpKind::Compute
                        | OpKind::Reduce
                        | OpKind::Copy
                        | OpKind::PutNotify
                        | OpKind::Notify
                        | OpKind::Send
                        | OpKind::Isend
                        | OpKind::WaitAllSends => {}
                        OpKind::WaitOne | OpKind::WaitMany | OpKind::WaitAny => {
                            let count = self.wait_ids(idx, &mut wids);
                            let satisfied = semantics::consume_wait(
                                &mut state,
                                wids.iter().copied(),
                                count,
                                |st, id| self.avail_optimistic(piece, &st[pi].consumed, id, st) >= 1,
                                |st, id| take_one(&mut st[pi].consumed, id),
                            );
                            if !satisfied {
                                state[pi].stuck = Stuck::Wait;
                                break;
                            }
                        }
                        OpKind::Recv => {
                            let src = decode_target(piece.rep(), a, class.mode, self.n);
                            let key = (src, b);
                            let produced: u64 = piece.msgs.get(&key).map_or(0, |srcs| {
                                srcs.iter()
                                    .filter(|s| self.edge_live_for_any_rank(piece, s, &state, &mut spans))
                                    .map(|s| s.count)
                                    .sum()
                            });
                            let used = state[pi].msgs_consumed.get(&key).copied().unwrap_or(0);
                            if produced <= used {
                                state[pi].stuck = Stuck::Recv;
                                break;
                            }
                            *state[pi].msgs_consumed.entry(key).or_insert(0) += 1;
                        }
                        OpKind::Barrier => {
                            state[pi].stuck = Stuck::Barrier;
                            break;
                        }
                    }
                    state[pi].cursor += 1;
                    progressed = true;
                }
            }
            // Barrier release mirrors the engine (and the lockstep loop):
            // *every* piece must be parked — a piece that ran out of ops
            // without a barrier never arrives at one, so its ranks hold any
            // remaining barrier closed forever.
            let parked = state.iter().filter(|s| s.stuck == Stuck::Barrier).count();
            if parked > 0 && parked == self.pieces.len() {
                for s in state.iter_mut().filter(|s| s.stuck == Stuck::Barrier) {
                    s.cursor += 1;
                    s.stuck = Stuck::Ready;
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        state.iter().any(|s| s.stuck != Stuck::Done)
    }
}

/// Direction of the rank-order induction a pipeline certificate runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dir {
    /// Supply flows from lower to higher ranks (writer < reader).
    Asc,
    /// Supply flows from higher to lower ranks (writer > reader).
    Desc,
}

/// How one class-min-gated supply edge is justified inside a certificate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EdgeCert {
    /// Every writer is outside the piece and individually past the
    /// producing op: available regardless of the class minimum.
    External,
    /// Some writers are ranks of the certified piece itself on the
    /// induction side: available by the induction hypothesis.
    Inductive,
    /// Not certifiable in this direction.
    No,
}

/// Per-key certificate supply: arrivals available under the induction
/// hypothesis, plus the largest inductively-supplied producing op.
struct CertSupply {
    avail: u64,
    inductive_op: Option<usize>,
}

/// The piece state a successful pipeline certificate commits back.
struct CertCommit {
    cursor: usize,
    consumed: HashMap<NotifyId, u64>,
    msgs_consumed: HashMap<(RankId, u32), u64>,
}

/// Consume one arrival of `id` (the `take` half of the wait rule over a
/// consumed-arrival map).
fn take_one(consumed: &mut HashMap<NotifyId, u64>, id: NotifyId) {
    *consumed.entry(id).or_insert(0) += 1;
}

/// Recompute class `ci`'s minimum cursor and, if it advanced, wake the
/// pieces whose supply edges it newly satisfies (shared by the drain loop
/// and the certificate commit path).
#[allow(clippy::too_many_arguments)]
fn bump_class_min(
    classes: &[Class],
    state: &[PieceState],
    wake: &[Vec<(u32, u32)>],
    wake_ptr: &mut [usize],
    class_min: &mut [usize],
    queue: &mut VecDeque<usize>,
    in_queue: &mut [bool],
    ci: usize,
) {
    let new_min = classes[ci].piece_idx.iter().map(|&q| state[q].cursor).min().unwrap_or(usize::MAX);
    if new_min > class_min[ci] {
        class_min[ci] = new_min;
        let w = &wake[ci];
        let ptr = &mut wake_ptr[ci];
        while *ptr < w.len() && (w[*ptr].0 as usize) < new_min {
            let dep = w[*ptr].1 as usize;
            *ptr += 1;
            if !in_queue[dep] && !matches!(state[dep].stuck, Stuck::Done | Stuck::Barrier) {
                in_queue[dep] = true;
                queue.push_back(dep);
            }
        }
    }
}

/// Merge a supply edge into a sorted-by-(class, op) edge list, coalescing
/// duplicates (the same producing op reaching the same piece through two
/// wrapped intervals).
fn push_supply(srcs: &mut Vec<Supply>, s: Supply) {
    if let Some(last) = srcs.last_mut() {
        if last.class == s.class && last.op == s.op && last.code == s.code {
            last.count += s.count;
            return;
        }
    }
    srcs.push(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn report(p: &Program) -> AnalysisReport {
        analyze(p).expect("test programs must validate")
    }

    #[test]
    fn ping_pong_is_clean() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 1);
        b.wait_notify(1, &[1]);
        b.put_notify(1, 0, 64, 2);
        b.wait_notify(0, &[2]);
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
        assert!(r.is_deadlock_free());
    }

    #[test]
    fn uniform_ring_shift_is_two_pieces_and_clean() {
        // Every rank puts one chunk to its successor and waits for its
        // predecessor's: one shared delta segment, split into at most a
        // couple of supply-uniform pieces.
        let p = 64;
        let mut b = ProgramBuilder::new(p);
        for r in 0..p {
            b.put_notify(r, (r + 1) % p, 1024, 0);
            b.wait_notify(r, &[0]);
        }
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
        // Rank 0's targets also satisfy the xor coding, so it may land in
        // its own class; everything else shares one delta segment.
        assert!(r.classes <= 2, "expected O(1) classes, got {}", r.classes);
        assert!(r.pieces <= 3, "expected O(1) pieces, got {}", r.pieces);
        assert_eq!(r.num_ranks, p);
    }

    #[test]
    fn dropped_notify_is_starvation() {
        let mut b = ProgramBuilder::new(2);
        b.wait_notify(0, &[7]);
        b.compute(1, 1e-6);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(
                e,
                AnalysisError::Starvation { rank: 0, op_index: 0, id: 7, required: 1, produced: 0, .. }
            )),
            "{:?}",
            r.errors
        );
        assert!(!r.is_deadlock_free());
    }

    #[test]
    fn circular_waits_are_a_certain_deadlock() {
        // Each rank waits for the other's notify before issuing its own.
        let mut b = ProgramBuilder::new(2);
        b.wait_notify(0, &[0]);
        b.notify(0, 1, 1);
        b.wait_notify(1, &[1]);
        b.notify(1, 0, 0);
        let r = report(&b.build());
        let dead = r
            .errors
            .iter()
            .find_map(|e| match e {
                AnalysisError::Deadlock { blocked, certain } => Some((blocked.clone(), *certain)),
                _ => None,
            })
            .expect("deadlock must be reported");
        assert!(dead.1, "no partial any-waits: deadlock must be certain");
        assert_eq!(dead.0.len(), 2);
        assert!(!r.is_deadlock_free());
    }

    #[test]
    fn overproduced_notify_is_a_leak() {
        let mut b = ProgramBuilder::new(2);
        b.notify(0, 1, 3);
        b.notify(0, 1, 3);
        b.wait_notify(1, &[3]);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(
                e,
                AnalysisError::NotificationLeak { rank: 1, id: 3, produced: 2, consumable: 1, .. }
            )),
            "{:?}",
            r.errors
        );
        // A leak alone must not be misread as a hang.
        assert!(r.is_deadlock_free());
    }

    #[test]
    fn two_writers_one_slot_is_a_race() {
        let mut b = ProgramBuilder::new(3);
        b.put_notify(0, 2, 64, 5);
        b.put_notify(1, 2, 64, 5);
        b.wait_notify(2, &[5]);
        b.wait_notify(2, &[5]);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(e, AnalysisError::MultiWriterRace { rank: 2, id: 5, .. })),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn partial_any_wait_can_drain_a_later_wait() {
        let mut b = ProgramBuilder::new(2);
        b.notify(0, 1, 1);
        b.notify(0, 1, 2);
        b.wait_notify_any(1, &[1, 2], 1);
        b.wait_notify(1, &[2]);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(e, AnalysisError::ConsumptionRace { rank: 1, op_index: 1, id: 2, .. })),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn never_awaited_payload_is_flagged() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 9);
        b.compute(1, 1e-6);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(e, AnalysisError::UnsyncedPayloadRead { rank: 1, id: 9, writer: 0, .. })),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn slot_reuse_without_ack_is_a_race_and_with_ack_is_clean() {
        // Unsynchronized: the second put can overwrite the unread first.
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 0);
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(1, &[0]);
        b.wait_notify(1, &[0]);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(
                e,
                AnalysisError::UnsyncedSlotReuse { writer: 0, rank: 1, id: 0, first_put: 0, second_put: 1, .. }
            )),
            "{:?}",
            r.errors
        );

        // Acknowledged: the reader confirms consumption before the reuse.
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(0, &[8]);
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(1, &[0]);
        b.notify(1, 0, 8);
        b.wait_notify(1, &[0]);
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
    }

    #[test]
    fn unmatched_barrier_is_a_deadlock() {
        let mut b = ProgramBuilder::new(2);
        b.barrier(0);
        b.compute(1, 1e-6);
        let r = report(&b.build());
        assert!(r.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { certain: true, .. })), "{:?}", r.errors);

        let mut b = ProgramBuilder::new(2);
        b.barrier_all();
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(1, &[0]);
        b.barrier_all();
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
    }

    #[test]
    fn two_sided_order_reversal_is_a_deadlock() {
        // Both ranks receive before sending; channel counts match, so
        // validation passes, but no message can ever be produced.
        let mut b = ProgramBuilder::new(2);
        b.recv(0, 1, 64, 0);
        b.send(0, 1, 64, 0);
        b.recv(1, 0, 64, 0);
        b.send(1, 0, 64, 0);
        let r = report(&b.build());
        assert!(r.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { .. })), "{:?}", r.errors);

        // The same channels in a workable order are clean.
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, 64, 0);
        b.recv(0, 1, 64, 0);
        b.recv(1, 0, 64, 0);
        b.send(1, 0, 64, 0);
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
    }

    #[test]
    fn hypercube_exchange_is_one_class_and_clean() {
        // Classic dimension-exchange: every rank puts to rank^2^k and waits
        // on the partner's put, per dimension.  One xor class, one piece.
        let p = 32;
        let mut b = ProgramBuilder::new(p);
        for r in 0..p {
            for k in 0..5u32 {
                b.put_notify(r, r ^ (1 << k), 256, k);
                b.wait_notify(r, &[k]);
            }
        }
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
        assert_eq!(r.classes, 1, "xor coding must dedup all ranks into one class");
        assert_eq!(r.pieces, 1);
    }

    #[test]
    fn report_scales_with_segments_not_ranks() {
        // The same shifted-ring program at two very different rank counts
        // must produce identical class/piece structure.
        for p in [128usize, 8192] {
            let mut b = ProgramBuilder::new(p);
            for r in 0..p {
                b.put_notify(r, (r + 1) % p, 1024, 0);
                b.wait_notify(r, &[0]);
                b.put_notify(r, (r + 1) % p, 1024, 1);
                b.wait_notify(r, &[1]);
            }
            let r = report(&b.build());
            assert!(r.is_clean(), "p={p}: {:?}", r.errors);
            assert!(r.classes <= 2, "p={p}: {}", r.classes);
            assert!(r.pieces <= 3, "p={p}: {}", r.pieces);
        }
    }

    /// Rank 0 puts, rank r waits for r−1 and forwards, the last rank only
    /// waits: the middle ranks intern into one shared segment and drain
    /// rank by rank.  The lockstep quotient alone stalls here (no piece
    /// can take the first step as a unit); the ascending pipeline
    /// certificate must discharge it at any rank count.
    #[test]
    fn shared_segment_pipelined_chain_is_clean() {
        for p in [3usize, 8, 64, 1 << 14] {
            let mut b = ProgramBuilder::new(p);
            b.put_notify(0, 1, 64, 0);
            for r in 1..p - 1 {
                b.wait_notify(r, &[0]);
                b.put_notify(r, (r + 1) % p, 64, 0);
            }
            b.wait_notify(p - 1, &[0]);
            let r = report(&b.build());
            assert!(r.is_clean(), "p={p}: {:?}", r.errors);
            assert!(r.is_deadlock_free());
            assert!(r.classes <= 4, "p={p}: the middle ranks must share a segment, got {} classes", r.classes);
        }
    }

    /// The same chain flowing downward (rank p−1 puts, rank r waits for
    /// r+1 and forwards) exercises the descending induction.
    #[test]
    fn reversed_pipelined_chain_is_clean() {
        for p in [3usize, 8, 64] {
            let mut b = ProgramBuilder::new(p);
            b.put_notify(p - 1, p - 2, 64, 0);
            for r in (1..p - 1).rev() {
                b.wait_notify(r, &[0]);
                b.put_notify(r, r - 1, 64, 0);
            }
            b.wait_notify(0, &[0]);
            let r = report(&b.build());
            assert!(r.is_clean(), "p={p}: {:?}", r.errors);
            assert!(r.is_deadlock_free());
        }
    }

    /// A multi-stage pipeline: two forward chains back to back through the
    /// same shared segment.  The certificate must compose across stages.
    #[test]
    fn two_stage_pipelined_chain_is_clean() {
        let p = 16;
        let mut b = ProgramBuilder::new(p);
        b.put_notify(0, 1, 64, 0);
        b.put_notify(0, 1, 64, 1);
        for r in 1..p - 1 {
            b.wait_notify(r, &[0]);
            b.put_notify(r, r + 1, 64, 0);
            b.wait_notify(r, &[1]);
            b.put_notify(r, r + 1, 64, 1);
        }
        b.wait_notify(p - 1, &[0]);
        b.wait_notify(p - 1, &[1]);
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
    }

    /// Closing the chain into a full ring where *every* rank waits before
    /// putting removes the base case: a genuine cycle.  The wrapped writer
    /// defeats both induction directions and even the over-approximating
    /// residual run cannot complete, so the deadlock stays `certain`.
    #[test]
    fn wait_first_full_ring_is_a_certain_deadlock() {
        let p = 8;
        let mut b = ProgramBuilder::new(p);
        for r in 0..p {
            b.wait_notify(r, &[0]);
            b.put_notify(r, (r + 1) % p, 64, 0);
        }
        let r = report(&b.build());
        assert!(r.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { certain: true, .. })), "{:?}", r.errors);
        assert!(!r.is_deadlock_free());
    }

    /// A partial any-wait in a piece that *completes* must not downgrade an
    /// unrelated deterministic deadlock to `certain: false`.
    #[test]
    fn partial_any_in_a_completed_piece_keeps_unrelated_deadlocks_certain() {
        let mut b = ProgramBuilder::new(4);
        // Ranks 0/1: deterministic circular wait.
        b.wait_notify(0, &[0]);
        b.notify(0, 1, 1);
        b.wait_notify(1, &[1]);
        b.notify(1, 0, 0);
        // Ranks 2/3: a partial any-wait that runs to completion.
        b.notify(2, 3, 5);
        b.notify(2, 3, 6);
        b.wait_notify_any(3, &[5, 6], 1);
        b.wait_notify(3, &[6]);
        let r = report(&b.build());
        let certain = r
            .errors
            .iter()
            .find_map(|e| match e {
                AnalysisError::Deadlock { certain, .. } => Some(*certain),
                _ => None,
            })
            .expect("ranks 0/1 deadlock");
        assert!(certain, "the any-wait's piece completed; the 0/1 cycle is order-independent: {:?}", r.errors);
    }

    /// The partial-any consumption race must name an id that is actually
    /// endangered (available under some order, drained in the worst case),
    /// not merely the first id of the wait's list.
    #[test]
    fn consumption_race_names_an_endangered_id() {
        let mut b = ProgramBuilder::new(2);
        b.notify(0, 1, 1);
        // Id 2 is listed first but never produced; only id 1 can be
        // drained from under the second any-wait.
        b.wait_notify_any(1, &[2, 1], 1);
        b.wait_notify_any(1, &[2, 1], 1);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(e, AnalysisError::ConsumptionRace { rank: 1, op_index: 1, id: 1, .. })),
            "{:?}",
            r.errors
        );
    }

    /// The xor branch of `receiver_intervals` must cover exactly the
    /// per-rank image for arbitrary sub-intervals — in O(log p) aligned
    /// blocks, not O(p) singletons.
    #[test]
    fn xor_receiver_intervals_match_per_rank_enumeration() {
        let n = 64;
        let mut out = Vec::new();
        for &(lo, hi) in &[(0usize, 64usize), (3, 8), (5, 37), (17, 18), (0, 48), (31, 63)] {
            for code in 1..n as u32 {
                out.clear();
                receiver_intervals(lo, hi, code, TargetMode::Xor, n, &mut out);
                assert!(
                    out.len() <= 2 * usize::BITS as usize,
                    "[{lo},{hi}) code {code}: {} intervals is not O(log p)",
                    out.len()
                );
                let mut got: Vec<usize> = out.iter().flat_map(|&(a, b)| a..b).collect();
                got.sort_unstable();
                let mut want: Vec<usize> = (lo..hi).map(|r| r ^ code as usize).collect();
                want.sort_unstable();
                assert_eq!(got, want, "[{lo},{hi}) code {code}");
            }
        }
    }
}
