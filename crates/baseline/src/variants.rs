//! Single-source baseline algorithm variants: each algorithm below is **one
//! body** generic over [`TwoSided`], executed both by the threaded
//! correctness oracle ([`ThreadedTwoSided`]) and by the schedule recorder
//! ([`RecordingTwoSided`]).  The same bodies carry the twelve-variant vendor
//! frontier the paper's Figures 11–13 compare against and the extra
//! candidates the `ec_bench` tuner prices.
//!
//! Variants provided (paper-figure nomenclature in parentheses):
//!
//! * **Allreduce** — [`recursive_doubling_allreduce`] (`mpi1`),
//!   [`rabenseifner_allreduce`] (recursive-halving reduce-scatter +
//!   recursive-doubling allgather, the tuner's `ss-rabenseifner`),
//!   [`tree_allreduce`] (reduce + broadcast over a [`crate::schedule::trees`]
//!   shape: `mpi3`, `mpi9` and the leader phase of `mpi10`–`mpi12`),
//!   [`gather_allreduce`] (binomial gather + root fold + broadcast, `mpi5`),
//!   [`hierarchical_allreduce`] (intra-node reduce, leader allreduce,
//!   intra-node broadcast: `mpi4`, `mpi6`, `mpi10`–`mpi12`) and
//!   [`reduce_scatter_allgather_allreduce`] (chunked ring reduce-scatter +
//!   allgather, native at any rank count: `mpi7`, `mpi8` with phase
//!   barriers, and `ss-rsag`).  [`crate::MpiAllreduceVariant`] maps the
//!   twelve legend entries onto these bodies;
//! * **AlltoAll** — [`bruck_alltoall`] (log-round store-and-forward, the
//!   classic small-message algorithm) and [`pairwise_alltoall`] (Figure 13's
//!   `mpi` curves);
//! * **Bcast** — [`scatter_allgather_bcast`] (van de Geijn),
//!   [`pipelined_binomial_bcast`] (segment-pipelined tree) and
//!   [`binomial_bcast`] (`mpi-bin` of Figure 8);
//! * **Reduce** — [`binomial_reduce`] (`mpi-bin` of Figure 9) and
//!   [`reduce_scatter_gather_reduce`] (Rabenseifner's reduce with a
//!   non-power-of-two fold).
//!
//! The `*_schedule` functions below, [`crate::MpiAllreduceVariant::schedule`]
//! and the binomial `mpi_*_schedule` generators record these bodies into
//! `ec_netsim` programs; the `ec_bench` tuner prices those schedules through
//! both the alpha–beta model and the network fabric to pick the best
//! variant per (rank count, message size, topology).
//!
//! ## Working-buffer layouts
//!
//! The rooted collectives and the allreduces operate directly on the payload
//! (`n` elements at offset 0); [`gather_allreduce`] stages the gathered
//! vectors behind it.  The alltoalls use staged layouts documented on the
//! respective bodies.  Chunked algorithms split the payload with
//! `ec_collectives::topology::chunk_ranges`, the same helper the GASPI ring
//! uses, so chunk boundaries agree across the whole suite.

use std::ops::Range;

use ec_collectives::topology::chunk_ranges;
use ec_netsim::Program;

use crate::comm::{MpiComm, MpiError, Result, Tag};
use crate::schedule::trees::{binomial, subtree_size, Tree};
use crate::twosided::{record, RecordingTwoSided, ThreadedTwoSided, TwoSided};

/// Default segment size (elements) of the pipelined binomial broadcast:
/// 2048 doubles = 16 KiB segments, a typical vendor pipelining granule.
pub const PIPELINE_SEGMENT_ELEMS: usize = 2048;

// Tag bases; each algorithm runs in its own program/world, so bases only
// need to keep the phases of one algorithm apart.
const TAG_TREE: Tag = 0;
const TAG_SCATTER: Tag = 1;
const TAG_FOLD_IN: Tag = 900;
const TAG_FOLD_OUT: Tag = 901;
const TAG_RS: Tag = 100;
const TAG_GATHER: Tag = 200;
const TAG_AG: Tag = 300;
const TAG_RING: Tag = 400;
const TAG_BRUCK: Tag = 500;
const TAG_RD_FOLD_IN: Tag = 90;
const TAG_RD_FOLD_OUT: Tag = 91;
const TAG_NODE_REDUCE: Tag = 600;
const TAG_NODE_BCAST: Tag = 601;

/// Virtual rank of `rank` in a world rooted at `root`.
fn vrank(rank: usize, root: usize, p: usize) -> usize {
    (rank + p - root) % p
}

/// Real rank of virtual rank `v` in a world rooted at `root`.
fn real(v: usize, root: usize, p: usize) -> usize {
    (v + root) % p
}

/// Largest power of two not exceeding `p` (shared by every fold-in/fold-out
/// variant, including [`crate::collectives::allreduce_recursive_doubling`]).
pub(crate) fn prev_power_of_two(p: usize) -> usize {
    assert!(p > 0, "a world has at least one rank");
    1usize << (usize::BITS - 1 - p.leading_zeros())
}

/// Element range spanned by chunks `lo..hi`.
fn chunk_span(chunks: &[(usize, usize)], lo: usize, hi: usize) -> Range<usize> {
    let (start, _) = chunks[lo];
    let (last_start, last_len) = chunks[hi - 1];
    start..last_start + last_len
}

// ---------------------------------------------------------------------------
// broadcast bodies
// ---------------------------------------------------------------------------

/// Broadcast of `n` elements from `root` down the tree `shape` (payload at
/// offset 0; the shape is laid over virtual ranks rooted at `root`).
fn tree_bcast<T: TwoSided>(t: &mut T, n: usize, root: usize, shape: impl Fn(usize, usize) -> Tree) -> Result<()> {
    let p = t.num_ranks();
    if p <= 1 || n == 0 {
        return Ok(());
    }
    let (parent, children) = shape(vrank(t.rank(), root, p), p);
    if let Some(pv) = parent {
        t.recv_copy(real(pv, root, p), TAG_TREE, 0..n)?;
    }
    for c in children {
        t.send(real(c, root, p), TAG_TREE, 0..n)?;
    }
    Ok(())
}

/// Binomial-tree broadcast of `n` elements from `root` (payload at offset 0).
pub fn binomial_bcast<T: TwoSided>(t: &mut T, n: usize, root: usize) -> Result<()> {
    tree_bcast(t, n, root, binomial)
}

/// Segment-pipelined binomial broadcast: the payload is cut into
/// `seg_elems`-element segments that flow down the tree independently, so an
/// inner node forwards segment `s` while still receiving segment `s + 1` —
/// the classic latency/bandwidth compromise between the binomial tree and
/// the scatter+allgather algorithm.
pub fn pipelined_binomial_bcast<T: TwoSided>(t: &mut T, n: usize, root: usize, seg_elems: usize) -> Result<()> {
    let p = t.num_ranks();
    if p <= 1 || n == 0 {
        return Ok(());
    }
    let seg = seg_elems.max(1);
    let v = vrank(t.rank(), root, p);
    let (parent, children) = binomial(v, p);
    let segments = n.div_ceil(seg);
    for s in 0..segments {
        let range = s * seg..n.min((s + 1) * seg);
        if let Some(pv) = parent {
            t.recv_copy(real(pv, root, p), s as Tag, range.clone())?;
        }
        for &c in &children {
            t.isend(real(c, root, p), s as Tag, range.clone())?;
        }
    }
    t.wait_all_sends()
}

/// Van de Geijn broadcast: binomial scatter of `1/P` chunks from the root
/// (each child receives the contiguous range its subtree owns) followed by a
/// ring allgather of the chunks — the vendor "default" for large payloads.
pub fn scatter_allgather_bcast<T: TwoSided>(t: &mut T, n: usize, root: usize) -> Result<()> {
    let p = t.num_ranks();
    if p <= 1 || n == 0 {
        return Ok(());
    }
    let v = vrank(t.rank(), root, p);
    let chunks = chunk_ranges(n, p);
    // Phase 1: recursive-halving binomial scatter with contiguous chunk
    // ownership — the crate's binomial tree numbers subtrees
    // *non-contiguously* (the subtree of rank 1 at P = 16 is {1, 3, 5, ...}),
    // so the scatter walks its own halving tree instead: the holder of the
    // virtual-rank segment `[lo, hi)` ships the chunks of the upper half to
    // that half's first member, then both recurse into their halves.
    let (mut lo, mut hi) = (0usize, p);
    while hi - lo > 1 {
        let mid = lo + (hi - lo).div_ceil(2);
        let upper = chunk_span(&chunks, mid, hi);
        if v == lo {
            t.send(real(mid, root, p), TAG_SCATTER, upper)?;
        } else if v == mid {
            t.recv_copy(real(lo, root, p), TAG_SCATTER, upper)?;
        }
        if v < mid {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // Phase 2: ring allgather of the P chunks (virtual-rank ring).  After
    // the scatter, virtual rank v owns chunk v; in step s it forwards chunk
    // (v - s) and receives chunk (v - s - 1), all landing at final offsets.
    let next = real((v + 1) % p, root, p);
    let prev = real((v + p - 1) % p, root, p);
    for step in 0..p - 1 {
        let (s_start, s_len) = chunks[(v + p - step) % p];
        let (r_start, r_len) = chunks[(v + 2 * p - step - 1) % p];
        t.isend(next, TAG_RING + step as Tag, s_start..s_start + s_len)?;
        t.recv_copy(prev, TAG_RING + step as Tag, r_start..r_start + r_len)?;
    }
    t.wait_all_sends()
}

// ---------------------------------------------------------------------------
// reduce bodies
// ---------------------------------------------------------------------------

/// Reduction (sum) of `n` elements towards `root` up the tree `shape`; the
/// result accumulates in the root's working buffer.
fn tree_reduce<T: TwoSided>(t: &mut T, n: usize, root: usize, shape: impl Fn(usize, usize) -> Tree) -> Result<()> {
    let p = t.num_ranks();
    if p <= 1 || n == 0 {
        return Ok(());
    }
    let (parent, children) = shape(vrank(t.rank(), root, p), p);
    // Deeper children finish first: fold them in largest-offset-first,
    // mirroring the reference implementation in `crate::collectives`.
    for c in children.iter().rev() {
        t.recv_reduce(real(*c, root, p), TAG_TREE, 0..n)?;
    }
    if let Some(pv) = parent {
        t.send(real(pv, root, p), TAG_TREE, 0..n)?;
    }
    Ok(())
}

/// Binomial-tree reduction (sum) of `n` elements towards `root`; the result
/// accumulates in the root's working buffer.
pub fn binomial_reduce<T: TwoSided>(t: &mut T, n: usize, root: usize) -> Result<()> {
    tree_reduce(t, n, root, binomial)
}

/// Rabenseifner's reduce: recursive-halving reduce-scatter over the largest
/// power-of-two sub-world, then a binomial gather of the fully reduced
/// pieces to the root.  Non-power-of-two rank counts fold the surplus ranks'
/// contributions into the low ranks before the scatter (fold-in); only the
/// root needs the result, so there is no fold-out.
pub fn reduce_scatter_gather_reduce<T: TwoSided>(t: &mut T, n: usize, root: usize) -> Result<()> {
    let p = t.num_ranks();
    if p <= 1 || n == 0 {
        return Ok(());
    }
    let v = vrank(t.rank(), root, p);
    let p2 = prev_power_of_two(p);
    let extras = p - p2;
    if v >= p2 {
        // Fold-in: surplus virtual ranks hand their contribution over and
        // retire from the collective.
        return t.send(real(v - p2, root, p), TAG_FOLD_IN, 0..n);
    }
    if v < extras {
        t.recv_reduce(real(v + p2, root, p), TAG_FOLD_IN, 0..n)?;
    }
    // Recursive-halving reduce-scatter over virtual ranks 0..p2.
    let steps = halving_reduce_scatter(t, v, p2, 0..n, root)?;
    // Binomial gather of the owned ranges back to virtual rank 0: unwind the
    // halving from the deepest level; the partner with the set bit sends its
    // fully reduced range and retires.
    let mut owned = steps.last().map_or(0..n, |s| s.kept.clone());
    for (k, step) in steps.iter().enumerate().rev() {
        let distance = p2 >> (k + 1);
        let partner = real(step.partner, root, p);
        if v & distance != 0 {
            return t.send(partner, TAG_GATHER + k as Tag, owned);
        }
        t.recv_copy(partner, TAG_GATHER + k as Tag, step.sent.clone())?;
        owned = owned.start.min(step.sent.start)..owned.end.max(step.sent.end);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// allreduce bodies
// ---------------------------------------------------------------------------

/// One level of the recursive-halving recursion: who was exchanged with and
/// which half of the then-current window each partner kept.
struct HalvingStep {
    partner: usize,
    kept: Range<usize>,
    sent: Range<usize>,
}

/// Recursive-halving reduce-scatter over the power-of-two world `0..p2`
/// (virtual ranks; `root` maps them back to real ranks).  Returns the
/// per-level exchange record so callers can unwind it into an allgather
/// (allreduce) or a gather (reduce).
fn halving_reduce_scatter<T: TwoSided>(
    t: &mut T,
    v: usize,
    p2: usize,
    window: Range<usize>,
    root: usize,
) -> Result<Vec<HalvingStep>> {
    let p = t.num_ranks();
    let d = p2.trailing_zeros();
    let (mut lo, mut hi) = (window.start, window.end);
    let mut steps = Vec::with_capacity(d as usize);
    for k in 0..d {
        let distance = p2 >> (k + 1);
        let partner = v ^ distance;
        let mid = lo + (hi - lo) / 2;
        let (kept, sent) = if v & distance == 0 { (lo..mid, mid..hi) } else { (mid..hi, lo..mid) };
        t.isend(real(partner, root, p), TAG_RS + k as Tag, sent.clone())?;
        t.recv_reduce(real(partner, root, p), TAG_RS + k as Tag, kept.clone())?;
        lo = kept.start;
        hi = kept.end;
        steps.push(HalvingStep { partner, kept, sent });
    }
    t.wait_all_sends()?;
    Ok(steps)
}

/// Rabenseifner's allreduce (`mpi2`): recursive-halving reduce-scatter
/// followed by a recursive-doubling allgather.  Non-power-of-two rank
/// counts are handled by folding the surplus ranks into the low ranks
/// before the scatter (fold-in) and sending them the finished result
/// afterwards (fold-out), so the collective is total at any `P`.
pub fn rabenseifner_allreduce<T: TwoSided>(t: &mut T, n: usize) -> Result<()> {
    let p = t.num_ranks();
    if p <= 1 || n == 0 {
        return Ok(());
    }
    let rank = t.rank();
    let p2 = prev_power_of_two(p);
    let extras = p - p2;
    if rank >= p2 {
        t.send(rank - p2, TAG_FOLD_IN, 0..n)?;
        return t.recv_copy(rank - p2, TAG_FOLD_OUT, 0..n);
    }
    if rank < extras {
        t.recv_reduce(rank + p2, TAG_FOLD_IN, 0..n)?;
    }
    let steps = halving_reduce_scatter(t, rank, p2, 0..n, 0)?;
    // Recursive-doubling allgather: unwind the halving — at each level both
    // partners exchange their (now fully reduced) windows, doubling what
    // they own until everyone holds the whole vector.
    let mut owned = steps.last().map_or(0..n, |s| s.kept.clone());
    for (k, step) in steps.iter().enumerate().rev() {
        t.isend(step.partner, TAG_AG + k as Tag, owned.clone())?;
        t.recv_copy(step.partner, TAG_AG + k as Tag, step.sent.clone())?;
        owned = owned.start.min(step.sent.start)..owned.end.max(step.sent.end);
    }
    t.wait_all_sends()?;
    if rank < extras {
        t.send(rank + p2, TAG_FOLD_OUT, 0..n)?;
    }
    Ok(())
}

/// Recursive-doubling allreduce (`mpi1`): `log2(P2)` full-vector exchanges
/// over the largest power-of-two sub-world `P2`.  The surplus ranks fold
/// their contribution into `rank - P2` first (fold-in) and receive the
/// result afterwards (fold-out).
pub fn recursive_doubling_allreduce<T: TwoSided>(t: &mut T, n: usize) -> Result<()> {
    let p = t.num_ranks();
    let rank = t.rank();
    let p2 = prev_power_of_two(p);
    let extras = p - p2;
    if rank >= p2 {
        t.send(rank - p2, TAG_RD_FOLD_IN, 0..n)?;
        return t.recv_copy(rank - p2, TAG_RD_FOLD_OUT, 0..n);
    }
    if rank < extras {
        t.recv_reduce(rank + p2, TAG_RD_FOLD_IN, 0..n)?;
    }
    let mut distance = 1usize;
    let mut round: Tag = 0;
    while distance < p2 {
        let partner = rank ^ distance;
        t.isend(partner, round, 0..n)?;
        t.recv_reduce(partner, round, 0..n)?;
        distance <<= 1;
        round += 1;
    }
    t.wait_all_sends()?;
    if rank < extras {
        t.send(rank + p2, TAG_RD_FOLD_OUT, 0..n)?;
    }
    Ok(())
}

/// Reduce to rank 0 up the tree `shape`, then broadcast the result back
/// down the same tree (`mpi3` binomial, `mpi9` 4-nomial, and the leader
/// phase of `mpi10`–`mpi12`).
pub fn tree_allreduce<T: TwoSided>(t: &mut T, n: usize, shape: impl Fn(usize, usize) -> Tree) -> Result<()> {
    tree_reduce(t, n, 0, &shape)?;
    tree_bcast(t, n, 0, &shape)
}

/// Binomial gather + broadcast allreduce (`mpi5`): every rank's whole
/// vector travels up the binomial tree (messages grow with the subtree),
/// the root folds the `P - 1` gathered vectors at once and broadcasts the
/// sum back down.
///
/// Working buffer: the payload at `0..n`, followed by room for the
/// gathered vectors of the rank's binomial subtree (`P * n` elements in all
/// at the root).
pub fn gather_allreduce<T: TwoSided>(t: &mut T, n: usize) -> Result<()> {
    let p = t.num_ranks();
    if p <= 1 || n == 0 {
        return Ok(());
    }
    let rank = t.rank();
    let (parent, children) = binomial(rank, p);
    let mut staged = n;
    for c in children.iter().rev() {
        let len = subtree_size(*c, p) * n;
        t.recv_copy(*c, TAG_GATHER, staged..staged + len)?;
        staged += len;
    }
    match parent {
        Some(parent) => t.send(parent, TAG_GATHER, 0..staged)?,
        None => t.reduce_local(0..n, n..staged)?,
    }
    binomial_bcast(t, n, 0)
}

/// The node leaders of a hierarchical collective as a world of their own:
/// leader `i` is real rank `i * stride`, so a flat body runs on them
/// unchanged.
pub struct Leaders<'a, T> {
    world: &'a mut T,
    stride: usize,
}

impl<T: TwoSided> TwoSided for Leaders<'_, T> {
    fn rank(&self) -> usize {
        self.world.rank() / self.stride
    }

    fn num_ranks(&self) -> usize {
        self.world.num_ranks() / self.stride
    }

    fn send(&mut self, dst: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        self.world.send(dst * self.stride, tag, elems)
    }

    fn isend(&mut self, dst: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        self.world.isend(dst * self.stride, tag, elems)
    }

    fn wait_all_sends(&mut self) -> Result<()> {
        self.world.wait_all_sends()
    }

    fn recv_copy(&mut self, src: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        self.world.recv_copy(src * self.stride, tag, elems)
    }

    fn recv_reduce(&mut self, src: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        self.world.recv_reduce(src * self.stride, tag, elems)
    }

    fn local_copy(&mut self, dst: usize, src: Range<usize>) -> Result<()> {
        self.world.local_copy(dst, src)
    }

    fn reduce_local(&mut self, dst: Range<usize>, src: Range<usize>) -> Result<()> {
        self.world.reduce_local(dst, src)
    }

    /// The ranks between the leaders are not in this world, so a barrier
    /// over it cannot be expressed as the world's barrier.
    fn barrier(&mut self) -> Result<()> {
        Err(MpiError::Unsupported("a barrier among node leaders"))
    }
}

/// Topology-aware allreduce (`mpi4`, `mpi6`, `mpi10`–`mpi12`): the ranks of
/// each node fold into the node's first rank, the `leaders` body allreduces
/// across those leaders, and each leader sends the result back to its
/// node.  Runs `leaders` over every rank when there is one rank per node or
/// the placement is irregular (`P` not a multiple of `ranks_per_node`).
pub fn hierarchical_allreduce<T: TwoSided>(
    t: &mut T,
    n: usize,
    ranks_per_node: usize,
    leaders: impl FnOnce(&mut Leaders<'_, T>) -> Result<()>,
) -> Result<()> {
    let p = t.num_ranks();
    let ppn = if ranks_per_node > 1 && p.is_multiple_of(ranks_per_node) { ranks_per_node } else { 1 };
    let rank = t.rank();
    let leader = rank - rank % ppn;
    if rank != leader {
        t.send(leader, TAG_NODE_REDUCE, 0..n)?;
        return t.recv_copy(leader, TAG_NODE_BCAST, 0..n);
    }
    for local in leader + 1..leader + ppn {
        t.recv_reduce(local, TAG_NODE_REDUCE, 0..n)?;
    }
    leaders(&mut Leaders { world: t, stride: ppn })?;
    for local in leader + 1..leader + ppn {
        t.send(local, TAG_NODE_BCAST, 0..n)?;
    }
    Ok(())
}

/// Chunked reduce-scatter + allgather allreduce over a ring — the
/// bandwidth-optimal large-message algorithm, native at **any** rank count
/// (no power-of-two fold needed): the payload is split into `P` chunks and
/// each phase circulates them once around the ring.  With `phase_barriers`
/// every rank also enters a barrier after each phase (`mpi8`) — the global
/// synchronization the paper's GASPI ring eliminates.
pub fn reduce_scatter_allgather_allreduce<T: TwoSided>(t: &mut T, n: usize, phase_barriers: bool) -> Result<()> {
    let p = t.num_ranks();
    if p <= 1 || n == 0 {
        return Ok(());
    }
    let rank = t.rank();
    let chunks = chunk_ranges(n, p);
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    // Reduce-scatter: after step s we have folded chunk (rank - s - 1) of
    // the predecessor into our copy; chunk (rank + 1) ends up fully reduced.
    for step in 0..p - 1 {
        let (s_start, s_len) = chunks[(rank + p - step) % p];
        let (r_start, r_len) = chunks[(rank + 2 * p - step - 1) % p];
        t.isend(next, TAG_RS + step as Tag, s_start..s_start + s_len)?;
        t.recv_reduce(prev, TAG_RS + step as Tag, r_start..r_start + r_len)?;
    }
    t.wait_all_sends()?;
    if phase_barriers {
        t.barrier()?;
    }
    // Allgather: the reduced chunks travel once more around the ring,
    // overwriting the stale partial sums at their final offsets.
    for step in 0..p - 1 {
        let (s_start, s_len) = chunks[(rank + 1 + p - step) % p];
        let (r_start, r_len) = chunks[(rank + p - step) % p];
        t.isend(next, TAG_AG + step as Tag, s_start..s_start + s_len)?;
        t.recv_copy(prev, TAG_AG + step as Tag, r_start..r_start + r_len)?;
    }
    t.wait_all_sends()?;
    if phase_barriers {
        t.barrier()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// alltoall bodies
// ---------------------------------------------------------------------------

/// Pairwise-exchange AlltoAll over a working buffer laid out as
/// `[send: P*block | recv: P*block]`: `P - 1` rounds, in round `k` every
/// rank exchanges one block with ranks at ring distance `k` — Figure 13's
/// `mpi` curves.
pub fn pairwise_alltoall<T: TwoSided>(t: &mut T, block: usize) -> Result<()> {
    let p = t.num_ranks();
    let rank = t.rank();
    let recv0 = p * block;
    t.local_copy(recv0 + rank * block, rank * block..(rank + 1) * block)?;
    for step in 1..p {
        let dst = (rank + step) % p;
        let src = (rank + p - step) % p;
        t.isend(dst, step as Tag, dst * block..(dst + 1) * block)?;
        t.recv_copy(src, step as Tag, recv0 + src * block..recv0 + (src + 1) * block)?;
    }
    t.wait_all_sends()
}

/// Bruck's AlltoAll: `ceil(log2 P)` store-and-forward rounds, each shipping
/// *one* aggregated message of up to `P/2` blocks — the latency-optimal
/// small-block algorithm, at the price of each block crossing the wire up to
/// `log2 P` times and of local pack/unpack copies.
///
/// Working-buffer layout (all regions `P*block` elements):
/// `[send | work | stage-out | stage-in | recv]`.
pub fn bruck_alltoall<T: TwoSided>(t: &mut T, block: usize) -> Result<()> {
    let p = t.num_ranks();
    let rank = t.rank();
    let b = block;
    let (work, out, inn, recv) = (p * b, 2 * p * b, 3 * p * b, 4 * p * b);
    // Phase 1: local rotation — work[j] holds the block destined to rank
    // (rank + j) mod P.
    for j in 0..p {
        let src = ((rank + j) % p) * b;
        t.local_copy(work + j * b, src..src + b)?;
    }
    // Phase 2: log-rounds.  In round k every rank packs the blocks whose
    // index has bit k set, ships them to rank + 2^k, and receives the
    // matching set from rank - 2^k into the same block slots.
    let mut pof2 = 1usize;
    let mut round: Tag = 0;
    while pof2 < p {
        let js: Vec<usize> = (0..p).filter(|j| j & pof2 != 0).collect();
        for (i, &j) in js.iter().enumerate() {
            t.local_copy(out + i * b, work + j * b..work + (j + 1) * b)?;
        }
        let m = js.len() * b;
        t.isend((rank + pof2) % p, TAG_BRUCK + round, out..out + m)?;
        t.recv_copy((rank + p - pof2) % p, TAG_BRUCK + round, inn..inn + m)?;
        t.wait_all_sends()?;
        for (i, &j) in js.iter().enumerate() {
            t.local_copy(work + j * b, inn + i * b..inn + (i + 1) * b)?;
        }
        pof2 <<= 1;
        round += 1;
    }
    // Phase 3: inverse rotation with reversal — the block received for
    // source rank s sits in work[(rank - s) mod P].
    for j in 0..p {
        let src = work + ((rank + p - j) % p) * b;
        t.local_copy(recv + j * b, src..src + b)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// threaded wrappers (correctness oracles on the real runtime)
// ---------------------------------------------------------------------------

/// Recursive-halving/doubling (Rabenseifner) allreduce on the threaded
/// runtime; works at any rank count.
pub fn allreduce_rabenseifner(comm: &mut MpiComm, data: &mut [f64]) -> Result<()> {
    let n = data.len();
    rabenseifner_allreduce(&mut ThreadedTwoSided::new(comm, data), n)
}

/// Chunked reduce-scatter + allgather allreduce on the threaded runtime;
/// native at non-power-of-two rank counts.
pub fn allreduce_reduce_scatter_allgather(comm: &mut MpiComm, data: &mut [f64]) -> Result<()> {
    let n = data.len();
    reduce_scatter_allgather_allreduce(&mut ThreadedTwoSided::new(comm, data), n, false)
}

/// Van de Geijn scatter + allgather broadcast on the threaded runtime.
pub fn bcast_scatter_allgather(comm: &mut MpiComm, data: &mut [f64], root: usize) -> Result<()> {
    let n = data.len();
    scatter_allgather_bcast(&mut ThreadedTwoSided::new(comm, data), n, root)
}

/// Segment-pipelined binomial broadcast on the threaded runtime.
pub fn bcast_pipelined_binomial(comm: &mut MpiComm, data: &mut [f64], root: usize, seg_elems: usize) -> Result<()> {
    let n = data.len();
    pipelined_binomial_bcast(&mut ThreadedTwoSided::new(comm, data), n, root, seg_elems)
}

/// Rabenseifner's reduce-scatter + gather reduce on the threaded runtime.
/// Returns the reduced vector on the root, `None` elsewhere.
pub fn reduce_rsg(comm: &mut MpiComm, contribution: &[f64], root: usize) -> Result<Option<Vec<f64>>> {
    let n = contribution.len();
    let mut buf = contribution.to_vec();
    reduce_scatter_gather_reduce(&mut ThreadedTwoSided::new(comm, &mut buf), n, root)?;
    Ok(if comm.rank() == root { Some(buf) } else { None })
}

/// Bruck AlltoAll on the threaded runtime: `send` holds one `block`-element
/// block per destination; returns the received blocks in source order.
pub fn alltoall_bruck(comm: &mut MpiComm, send: &[f64], block: usize) -> Result<Vec<f64>> {
    let p = comm.size();
    assert_eq!(send.len(), p * block, "send buffer must hold one block per rank");
    let mut buf = vec![0.0; 5 * p * block];
    buf[..p * block].copy_from_slice(send);
    bruck_alltoall(&mut ThreadedTwoSided::new(comm, &mut buf), block)?;
    Ok(buf[4 * p * block..].to_vec())
}

// ---------------------------------------------------------------------------
// schedule generators (the same bodies, recorded)
// ---------------------------------------------------------------------------

/// Record `body` over byte-granular elements (1 byte per element), the
/// convention of every baseline schedule generator.
fn record_bytes(ranks: usize, body: impl FnMut(&mut RecordingTwoSided) -> Result<()>) -> Program {
    record(ranks, 1, body)
}

/// Schedule of [`rabenseifner_allreduce`] for `ranks` ranks reducing
/// `total_bytes` bytes.
pub fn rabenseifner_allreduce_schedule(ranks: usize, total_bytes: u64) -> Program {
    record_bytes(ranks, |t| rabenseifner_allreduce(t, total_bytes as usize))
}

/// Schedule of [`reduce_scatter_allgather_allreduce`].
pub fn rsag_allreduce_schedule(ranks: usize, total_bytes: u64) -> Program {
    record_bytes(ranks, |t| reduce_scatter_allgather_allreduce(t, total_bytes as usize, false))
}

/// Schedule of [`bruck_alltoall`] with `block_bytes`-byte blocks.
pub fn bruck_alltoall_schedule(ranks: usize, block_bytes: u64) -> Program {
    record_bytes(ranks, |t| bruck_alltoall(t, block_bytes as usize))
}

/// Schedule of [`pairwise_alltoall`] with `block_bytes`-byte blocks.
pub fn pairwise_alltoall_schedule(ranks: usize, block_bytes: u64) -> Program {
    record_bytes(ranks, |t| pairwise_alltoall(t, block_bytes as usize))
}

/// Schedule of [`scatter_allgather_bcast`] from rank 0.
pub fn scatter_allgather_bcast_schedule(ranks: usize, total_bytes: u64) -> Program {
    record_bytes(ranks, |t| scatter_allgather_bcast(t, total_bytes as usize, 0))
}

/// Schedule of [`pipelined_binomial_bcast`] from rank 0 with
/// `segment_bytes`-byte segments.
pub fn pipelined_binomial_bcast_schedule(ranks: usize, total_bytes: u64, segment_bytes: u64) -> Program {
    record_bytes(ranks, |t| pipelined_binomial_bcast(t, total_bytes as usize, 0, segment_bytes.max(1) as usize))
}

/// Schedule of [`reduce_scatter_gather_reduce`] towards rank 0.
pub fn rsg_reduce_schedule(ranks: usize, total_bytes: u64) -> Program {
    record_bytes(ranks, |t| reduce_scatter_gather_reduce(t, total_bytes as usize, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce_ring, alltoall_pairwise, reduce_binomial};
    use crate::comm::MpiWorld;
    use crate::schedule::{mpi_bcast_binomial_schedule, mpi_reduce_binomial_schedule};
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    fn input(rank: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| ((rank * 31 + i * 7) % 17) as f64 - 8.0).collect()
    }

    fn expected_sum(p: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| (0..p).map(|r| input(r, n)[i]).sum()).collect()
    }

    /// Pairwise-exchange AlltoAll through the single-source body (the reference
    /// [`crate::collectives::alltoall_pairwise`] is the hand-written oracle it
    /// is cross-checked against).
    fn alltoall_pairwise_ss(comm: &mut MpiComm, send: &[f64], block: usize) -> Result<Vec<f64>> {
        let p = comm.size();
        assert_eq!(send.len(), p * block, "send buffer must hold one block per rank");
        let mut buf = vec![0.0; 2 * p * block];
        buf[..p * block].copy_from_slice(send);
        pairwise_alltoall(&mut ThreadedTwoSided::new(comm, &mut buf), block)?;
        Ok(buf[p * block..].to_vec())
    }

    /// Binomial broadcast through the single-source body.
    fn bcast_binomial_ss(comm: &mut MpiComm, data: &mut [f64], root: usize) -> Result<()> {
        let n = data.len();
        binomial_bcast(&mut ThreadedTwoSided::new(comm, data), n, root)
    }

    /// Binomial reduce through the single-source body.  Returns the reduced
    /// vector on the root, `None` elsewhere.
    fn reduce_binomial_ss(comm: &mut MpiComm, contribution: &[f64], root: usize) -> Result<Option<Vec<f64>>> {
        let n = contribution.len();
        let mut buf = contribution.to_vec();
        binomial_reduce(&mut ThreadedTwoSided::new(comm, &mut buf), n, root)?;
        Ok(if comm.rank() == root { Some(buf) } else { None })
    }

    #[test]
    fn rabenseifner_allreduce_matches_the_sum_at_any_rank_count() {
        for p in [2usize, 3, 4, 6, 7, 8, 12] {
            let n = 37;
            let want = expected_sum(p, n);
            let out = MpiWorld::new(p).run(|comm| {
                let mut data = input(comm.rank(), n);
                allreduce_rabenseifner(comm, &mut data).unwrap();
                data
            });
            for data in &out {
                for (a, b) in data.iter().zip(want.iter()) {
                    assert!((a - b).abs() < 1e-9, "p={p}");
                }
            }
        }
    }

    #[test]
    fn rsag_allreduce_matches_the_ring_reference_bit_for_bit() {
        for (p, n) in [(5usize, 23usize), (8, 64), (12, 7)] {
            let ss = MpiWorld::new(p).run(|comm| {
                let mut data = input(comm.rank(), n);
                allreduce_reduce_scatter_allgather(comm, &mut data).unwrap();
                data
            });
            let reference = MpiWorld::new(p).run(|comm| {
                let mut data = input(comm.rank(), n);
                allreduce_ring(comm, &mut data).unwrap();
                data
            });
            // Same chunking, same fold order: the single-source body must
            // reproduce the hand-written ring exactly, not just within 1e-9.
            assert_eq!(ss, reference, "p={p} n={n}");
        }
    }

    #[test]
    fn bcast_variants_replicate_the_root_data() {
        for p in [2usize, 5, 8, 12] {
            for root in [0, p - 1] {
                let n = 41;
                let want = input(root, n);
                for variant in 0..3 {
                    let root_data = want.clone();
                    let out = MpiWorld::new(p).run(move |comm| {
                        let mut data = if comm.rank() == root { root_data.clone() } else { vec![0.0; n] };
                        match variant {
                            0 => bcast_scatter_allgather(comm, &mut data, root).unwrap(),
                            1 => bcast_pipelined_binomial(comm, &mut data, root, 16).unwrap(),
                            _ => bcast_binomial_ss(comm, &mut data, root).unwrap(),
                        }
                        data
                    });
                    for data in &out {
                        assert_eq!(data, &want, "variant {variant} p={p} root={root}");
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_variants_agree_with_the_binomial_reference() {
        for p in [2usize, 6, 8, 12] {
            let n = 29;
            let root = p / 2;
            let reference = MpiWorld::new(p).run(move |comm| {
                let contribution = input(comm.rank(), n);
                reduce_binomial(comm, &contribution, root).unwrap()
            });
            let want = reference[root].as_ref().unwrap();
            for variant in 0..2 {
                let out = MpiWorld::new(p).run(move |comm| {
                    let contribution = input(comm.rank(), n);
                    match variant {
                        0 => reduce_rsg(comm, &contribution, root).unwrap(),
                        _ => reduce_binomial_ss(comm, &contribution, root).unwrap(),
                    }
                });
                let got = out[root].as_ref().unwrap();
                for (a, b) in got.iter().zip(want.iter()) {
                    assert!((a - b).abs() < 1e-9, "variant {variant} p={p}");
                }
                assert!(out.iter().enumerate().all(|(r, v)| r == root || v.is_none()));
            }
        }
    }

    #[test]
    fn alltoall_variants_match_the_pairwise_reference() {
        for p in [2usize, 3, 5, 8, 12] {
            let block = 3;
            let reference = MpiWorld::new(p).run(move |comm| {
                let send: Vec<f64> = (0..p * block).map(|i| (comm.rank() * 100 + i) as f64).collect();
                alltoall_pairwise(comm, &send, block).unwrap()
            });
            for variant in 0..2 {
                let out = MpiWorld::new(p).run(move |comm| {
                    let send: Vec<f64> = (0..p * block).map(|i| (comm.rank() * 100 + i) as f64).collect();
                    match variant {
                        0 => alltoall_bruck(comm, &send, block).unwrap(),
                        _ => alltoall_pairwise_ss(comm, &send, block).unwrap(),
                    }
                });
                assert_eq!(out, reference, "variant {variant} p={p}");
            }
        }
    }

    #[test]
    fn every_new_schedule_validates_and_simulates_on_both_models() {
        let bytes = 100_000;
        for p in [2usize, 6, 12, 16] {
            let programs = [
                rabenseifner_allreduce_schedule(p, bytes),
                rsag_allreduce_schedule(p, bytes),
                bruck_alltoall_schedule(p, 4096),
                pairwise_alltoall_schedule(p, 4096),
                scatter_allgather_bcast_schedule(p, bytes),
                pipelined_binomial_bcast_schedule(p, bytes, 16 * 1024),
                mpi_bcast_binomial_schedule(p, bytes),
                mpi_reduce_binomial_schedule(p, bytes),
                rsg_reduce_schedule(p, bytes),
            ];
            let alpha_beta = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
            let fabric = ec_netsim::ClusterPreset::skylake_fdr().with_nodes(p).engine();
            for prog in &programs {
                validate(prog, p).unwrap_or_else(|e| panic!("p={p}: {e}"));
                let t_ab = alpha_beta.makespan(prog).unwrap();
                let t_fab = fabric.makespan(prog).unwrap();
                assert!(t_ab > 0.0 && t_ab < 1.0, "alpha-beta makespan {t_ab} implausible at p={p}");
                assert!(t_fab > 0.0 && t_fab < 1.0, "fabric makespan {t_fab} implausible at p={p}");
            }
        }
    }

    #[test]
    fn bruck_trades_messages_for_volume_against_pairwise() {
        let p = 32;
        let block = 1024;
        let bruck = bruck_alltoall_schedule(p, block);
        let pairwise = pairwise_alltoall_schedule(p, block);
        // Bruck: one aggregated message per rank per log-round.
        let count_sends = |prog: &Program| {
            prog.ranks
                .iter()
                .flat_map(|r| r.ops.iter())
                .filter(|op| matches!(op, ec_netsim::Op::Isend { .. } | ec_netsim::Op::Send { .. }))
                .count()
        };
        assert_eq!(count_sends(&bruck), p * 5, "32 ranks -> 5 rounds, one message each");
        assert_eq!(count_sends(&pairwise), p * (p - 1));
        assert!(bruck.total_wire_bytes() > pairwise.total_wire_bytes(), "store-and-forward re-ships blocks");
        // The latency/bandwidth trade: Bruck wins for tiny blocks, loses for
        // large ones.
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
        let tiny_bruck = e.makespan(&bruck_alltoall_schedule(p, 8)).unwrap();
        let tiny_pairwise = e.makespan(&pairwise_alltoall_schedule(p, 8)).unwrap();
        assert!(tiny_bruck < tiny_pairwise, "Bruck ({tiny_bruck}) must win at 8-byte blocks ({tiny_pairwise})");
        let big_bruck = e.makespan(&bruck_alltoall_schedule(p, 256 * 1024)).unwrap();
        let big_pairwise = e.makespan(&pairwise_alltoall_schedule(p, 256 * 1024)).unwrap();
        assert!(big_pairwise < big_bruck, "pairwise ({big_pairwise}) must win at 256 KiB blocks ({big_bruck})");
    }

    #[test]
    fn bcast_variants_rank_as_expected_for_large_payloads() {
        let p = 16;
        let bytes = 8_000_000;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
        let plain = e.makespan(&mpi_bcast_binomial_schedule(p, bytes)).unwrap();
        let pipelined = e.makespan(&pipelined_binomial_bcast_schedule(p, bytes, 64 * 1024)).unwrap();
        let scatter = e.makespan(&scatter_allgather_bcast_schedule(p, bytes)).unwrap();
        // The van de Geijn algorithm is the large-message winner (2(P-1)/P
        // payload transfers on the critical path vs the tree's root fan-out).
        assert!(scatter < plain, "van de Geijn ({scatter}) must beat the plain tree ({plain})");
        assert!(scatter < pipelined, "van de Geijn ({scatter}) must beat the pipelined tree ({pipelined})");
        // Pipelining a binomial tree cannot beat the root's fan-out egress
        // (which already bounds the plain tree's critical path); the variant
        // must stay within per-segment overhead of the plain tree.
        assert!(pipelined < plain * 1.01, "pipelined ({pipelined}) must not regress the plain tree ({plain})");
    }

    #[test]
    fn rsg_reduce_beats_the_binomial_tree_for_large_payloads() {
        let p = 32;
        let bytes = 8_000_000;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
        let tree = e.makespan(&mpi_reduce_binomial_schedule(p, bytes)).unwrap();
        let rsg = e.makespan(&rsg_reduce_schedule(p, bytes)).unwrap();
        assert!(rsg < tree, "reduce-scatter+gather ({rsg}) must beat the binomial tree ({tree}) at 8 MB");
    }

    #[test]
    fn payloads_smaller_than_the_rank_count_still_work() {
        for p in [6usize, 12] {
            let n = 3; // fewer elements than ranks: some chunks are empty
            let want = expected_sum(p, n);
            let out = MpiWorld::new(p).run(|comm| {
                let mut data = input(comm.rank(), n);
                allreduce_reduce_scatter_allgather(comm, &mut data).unwrap();
                data
            });
            for data in &out {
                for (a, b) in data.iter().zip(want.iter()) {
                    assert!((a - b).abs() < 1e-9, "p={p}");
                }
            }
            let prog = rsag_allreduce_schedule(p, n as u64);
            validate(&prog, p).unwrap();
        }
    }
}
