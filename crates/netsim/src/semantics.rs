//! The rules the simulator applies to an op, in one place.
//!
//! Three interpreters read the same programs: the strict event loop
//! ([`crate::engine`]), the dataflow burst path (`dataflow`) and the static
//! analyzer ([`crate::analyze()`]).  They differ in how they schedule ops —
//! a global event queue, per-rank bursts against arrival FIFOs, a timeless
//! abstract execution — but not in what an op *means*.  Everything that
//! defines that meaning lives here, with one body each:
//!
//! * the **wait rule** ([`consume_wait`]) and arrival bookkeeping
//!   ([`note_arrival`]);
//! * **local-op** duration and accounting ([`local_op`]);
//! * **alpha–beta wire timing** with scenario jitter and per-node NIC
//!   cursors ([`Wire`]);
//! * **trace numbering**: the per-rank own channel, the per-destination
//!   arrival channel and flow ids ([`Tracer`]);
//! * the **deadlock text** of a stuck notification wait
//!   ([`describe_wait`]).

use crate::cluster::{ClusterSpec, RankId};
use crate::compiled::{IdsRef, OpView};
use crate::cost::CostModel;
use crate::program::NotifyId;
use crate::report::RankStats;
use crate::scenario::ScenarioInstance;
use crate::trace::{MsgLabel, TraceDetail, TraceEvent, TraceFilter, TraceKind, ARRIVAL_SEQ};

/// The wait rule.  A wait for `count` of `ids` succeeds when at least
/// `count` ids have an unconsumed arrival; it then takes one arrival from
/// each of the first `count` available ids, in listed order, and returns
/// true.  Arrivals beyond `count` stay for later waits: a
/// `WaitNotifyAny { count }` must never drain ids a subsequent wait depends
/// on.
///
/// `available` and `take` read and consume one id's arrivals in `state` —
/// a dense counter slice in the engine, a consumed-arrival map in the
/// analyzer.  Validation guarantees `1 <= count <= ids.len()` and distinct
/// ids, so taking one id never changes another's availability.
#[inline]
pub(crate) fn consume_wait<S: ?Sized>(
    state: &mut S,
    ids: impl Iterator<Item = NotifyId> + Clone,
    count: usize,
    available: impl Fn(&S, NotifyId) -> bool,
    mut take: impl FnMut(&mut S, NotifyId),
) -> bool {
    if ids.clone().filter(|&id| available(state, id)).take(count).count() < count {
        return false;
    }
    let mut taken = 0;
    for id in ids {
        if taken == count {
            break;
        }
        if available(state, id) {
            take(state, id);
            taken += 1;
        }
    }
    true
}

/// [`consume_wait`] over a rank's dense counter slice (notify id ->
/// unconsumed arrivals), crediting the consumed arrivals to `stats`.
#[inline]
pub(crate) fn consume_counts(counts: &mut [u32], ids: IdsRef<'_>, count: usize, stats: &mut RankStats) -> bool {
    let ok = consume_wait(
        counts,
        ids.iter(),
        count,
        |c, id| c.get(id as usize).is_some_and(|&n| n > 0),
        |c, id| c[id as usize] -= 1,
    );
    if ok {
        stats.notifications_consumed += count as u64;
    }
    ok
}

/// Record a visible notification against a rank's dense counter slice.  An
/// id beyond the slice (no wait of the rank can reference it) can never
/// satisfy a wait, so it is only counted as received.
#[inline]
pub(crate) fn note_arrival(counts: &mut [u32], stats: &mut RankStats, id: NotifyId) {
    if let Some(c) = counts.get_mut(id as usize) {
        *c += 1;
    }
    stats.notifications_received += 1;
}

/// The `(ids, count)` of a notification wait; `None` for any other op.
#[inline]
pub(crate) fn wait_of(op: OpView<'_>) -> Option<(IdsRef<'_>, usize)> {
    match op {
        OpView::WaitNotify { ids } => Some((ids, ids.len())),
        OpView::WaitNotifyAny { ids, count } => Some((ids, count)),
        _ => None,
    }
}

/// What a stuck notification wait reports in a deadlock.
pub(crate) fn describe_wait(ids: IdsRef<'_>, count: usize) -> String {
    format!("waiting for {count} of notifications {ids:?}")
}

/// Execute a purely local op (`Compute`, `Reduce`, `Copy`) starting at
/// `t`: its nominal duration, scaled by the rank's scenario compute factor,
/// is charged to `stats.compute_time`.  Returns the op's end time.
#[inline]
pub(crate) fn local_op(cost: &CostModel, op: OpView<'_>, t: f64, stats: &mut RankStats) -> f64 {
    let nominal = match op {
        OpView::Compute { seconds } => seconds.max(0.0),
        OpView::Reduce { bytes } => cost.reduce_time(bytes),
        OpView::Copy { bytes } => cost.copy_time(bytes),
        other => unreachable!("{other:?} is not a local op"),
    };
    let d = nominal * stats.compute_scale;
    stats.compute_time += d;
    t + d
}

/// Timing of one alpha–beta transfer (see [`Wire::transfer`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireTiming {
    /// When the sender's NIC is released.
    pub(crate) tx_done: f64,
    /// When the last byte lands in the receiver's memory.
    pub(crate) delivered: f64,
    /// NIC queueing between injection and transmission (tx + rx side).
    pub(crate) queue: f64,
    /// Serialization (wire) time.
    pub(crate) ser: f64,
}

/// The contention-free alpha–beta network: link latency and bandwidth from
/// the cost model, scaled by the scenario's per-link jitter, with per-node
/// NIC cursors serializing the traffic out of and into each node.
pub(crate) struct Wire<'a> {
    cluster: &'a ClusterSpec,
    cost: &'a CostModel,
    scenario: Option<&'a ScenarioInstance>,
    /// Earliest time each node's outbound NIC is free again.
    node_tx_free: Vec<f64>,
    /// Earliest time each node's inbound NIC is free again.
    node_rx_free: Vec<f64>,
}

impl<'a> Wire<'a> {
    pub(crate) fn new(cluster: &'a ClusterSpec, cost: &'a CostModel, scenario: Option<&'a ScenarioInstance>) -> Self {
        Self { cluster, cost, scenario, node_tx_free: vec![0.0; cluster.nodes], node_rx_free: vec![0.0; cluster.nodes] }
    }

    /// Price a transfer of `bytes` from `src` to `dst` injected no earlier
    /// than `earliest`: when the sender's NIC is released, when the last
    /// byte lands, and the trace decomposition (NIC queueing,
    /// serialization).  `tx_free` is the sender rank's own injection
    /// cursor; both it and the node cursors advance.
    pub(crate) fn transfer(
        &mut self,
        src: RankId,
        dst: RankId,
        bytes: u64,
        two_sided: bool,
        earliest: f64,
        tx_free: &mut f64,
    ) -> WireTiming {
        let cost = self.cost;
        let same_node = self.cluster.same_node(src, dst);
        let src_node = self.cluster.node_of(src);
        let dst_node = self.cluster.node_of(dst);
        let beta = if two_sided { cost.beta_two_sided(same_node) } else { cost.beta_one_sided(same_node) };
        let mut ser = cost.serialization(bytes, beta);
        let mut alpha = cost.alpha(same_node);
        if let Some(inst) = self.scenario {
            alpha *= inst.link_alpha_scale(src_node, dst_node);
            ser *= inst.link_beta_scale(src_node, dst_node);
        }
        let mut tx_start = earliest.max(*tx_free);
        if !same_node {
            tx_start = tx_start.max(self.node_tx_free[src_node]);
        }
        let tx_done = tx_start + ser;
        *tx_free = tx_done;
        if !same_node {
            self.node_tx_free[src_node] = tx_done;
        }
        // Cut-through delivery: the head arrives after `alpha`, the receiver
        // NIC then needs the serialization time; inter-node messages also
        // queue behind other traffic into the destination node.
        let mut rx_start = tx_start + alpha;
        if !same_node {
            rx_start = rx_start.max(self.node_rx_free[dst_node]);
        }
        let delivered = rx_start + ser;
        if !same_node {
            self.node_rx_free[dst_node] = delivered;
        }
        // NIC queueing: the injection wait behind earlier traffic plus the
        // receive-side wait behind the destination node's inbound traffic.
        // Everything else in `delivered - earliest` is serialization and
        // alpha, so the arrival decomposition telescopes exactly.
        let queue = (tx_start - earliest) + (rx_start - (tx_start + alpha));
        WireTiming { tx_done, delivered, queue, ser }
    }
}

/// Trace recording and numbering.  Every rank owns a sequence channel for
/// its own events, every destination an arrival channel (`ARRIVAL_SEQ | n`)
/// for future-dated arrivals, and every source a flow-id counter pairing an
/// injection with its arrival.  Counters advance even for ranks the filter
/// drops, so a windowed trace is a strict subset of the full one; sorting
/// by `(time, rank, seq)` merges the streams of every execution path and
/// shard into one canonical order.  A disabled tracer records and numbers
/// nothing.
pub(crate) struct Tracer {
    on: bool,
    filter: TraceFilter,
    own_seq: Vec<u64>,
    arrival_seq: Vec<u64>,
    flow_seq: Vec<u64>,
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// A tracer for `ranks` ranks (allocates nothing when `on` is false).
    pub(crate) fn new(on: bool, filter: TraceFilter, ranks: usize) -> Self {
        let counters = || if on { vec![0; ranks] } else { Vec::new() };
        Self { on, filter, own_seq: counters(), arrival_seq: counters(), flow_seq: counters(), events: Vec::new() }
    }

    /// Record an event on `rank`'s own sequence channel.
    #[inline]
    pub(crate) fn own(
        &mut self,
        time: f64,
        rank: RankId,
        kind: TraceKind,
        op_index: Option<usize>,
        detail: TraceDetail,
    ) {
        if !self.on {
            return;
        }
        let seq = self.own_seq[rank];
        self.own_seq[rank] += 1;
        if self.filter.keeps(rank) {
            self.events.push(TraceEvent::new(time, rank, kind, op_index, seq, detail));
        }
    }

    /// Record a message arrival on `dst`'s arrival channel.  Arrivals are
    /// emitted (future-dated) when their timing is decided, not when they
    /// happen; the final sort merges them into canonical order.
    #[inline]
    pub(crate) fn arrival(&mut self, time: f64, dst: RankId, kind: TraceKind, detail: TraceDetail) {
        if !self.on {
            return;
        }
        let seq = ARRIVAL_SEQ | self.arrival_seq[dst];
        self.arrival_seq[dst] += 1;
        if self.filter.keeps(dst) {
            self.events.push(TraceEvent::new(time, dst, kind, None, seq, detail));
        }
    }

    /// Mint the flow id of an injection from `src` and record its
    /// `MsgInjected` event; returns the flow id (0 when disabled).
    #[inline]
    pub(crate) fn inject(&mut self, time: f64, src: RankId, dst: RankId, bytes: u64, label: MsgLabel) -> u64 {
        if !self.on {
            return 0;
        }
        let flow = ((src as u64) << 32) | self.flow_seq[src];
        self.flow_seq[src] += 1;
        self.own(time, src, TraceKind::MsgInjected, None, TraceDetail::Inject { dst, bytes, label, flow });
        flow
    }

    /// The recorded events, unsorted.
    pub(crate) fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the wait rule over a counter slice; returns success and the
    /// counters afterwards.
    fn wait(mut counts: Vec<u32>, ids: &[NotifyId], count: usize) -> (bool, Vec<u32>) {
        let mut stats = RankStats::default();
        let ok = consume_counts(&mut counts, IdsRef::Many(ids), count, &mut stats);
        assert_eq!(stats.notifications_consumed, if ok { count as u64 } else { 0 });
        (ok, counts)
    }

    #[test]
    fn wait_takes_only_count_of_the_available_ids() {
        // Three ids available, the wait needs two: the first two listed go,
        // the third survives for a later wait.
        assert_eq!(wait(vec![1, 1, 1], &[0, 1, 2], 2), (true, vec![0, 0, 1]));
        // One arrival per id is taken even when an id has several.
        assert_eq!(wait(vec![3, 0, 2], &[0, 1, 2], 1), (true, vec![2, 0, 2]));
    }

    #[test]
    fn wait_for_every_listed_id_needs_all_of_them() {
        assert_eq!(wait(vec![1, 2, 1], &[2, 0, 1], 3), (true, vec![0, 1, 0]));
        assert_eq!(wait(vec![1, 0, 1], &[0, 1, 2], 3), (false, vec![1, 0, 1]));
    }

    #[test]
    fn wait_with_nothing_available_fails_and_consumes_nothing() {
        assert_eq!(wait(vec![0, 0, 0], &[0, 1, 2], 1), (false, vec![0, 0, 0]));
        // An id beyond the rank's counter range is never available.
        assert_eq!(wait(vec![0, 0], &[7], 1), (false, vec![0, 0]));
        // Too few available ids: the partial set is left untouched.
        assert_eq!(wait(vec![1, 0, 0], &[0, 1, 2], 2), (false, vec![1, 0, 0]));
    }

    #[test]
    fn listed_order_wins_over_arrival_order() {
        // Arrivals land as 0, 1, 2; a wait listing [2, 0, 1] for one id
        // takes id 2, the first *listed* available id.
        let mut counts = vec![0u32; 3];
        let mut stats = RankStats::default();
        for id in [0, 1, 2] {
            note_arrival(&mut counts, &mut stats, id);
        }
        assert_eq!(stats.notifications_received, 3);
        assert!(consume_counts(&mut counts, IdsRef::Many(&[2, 0, 1]), 1, &mut stats));
        assert_eq!(counts, vec![1, 1, 0]);
        assert!(consume_counts(&mut counts, IdsRef::Many(&[1, 0]), 1, &mut stats));
        assert_eq!(counts, vec![1, 0, 0]);
    }

    #[test]
    fn out_of_range_arrivals_count_as_received_only() {
        let mut counts = vec![0u32; 2];
        let mut stats = RankStats::default();
        note_arrival(&mut counts, &mut stats, 9);
        assert_eq!(counts, vec![0, 0]);
        assert_eq!(stats.notifications_received, 1);
    }
}
