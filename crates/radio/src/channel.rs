//! The shared wireless medium.
//!
//! The channel tracks every in-flight transmission as a set of per-receiver
//! *signals*. A signal is receivable when the receiver is inside reception
//! range; audible (occupying the medium) inside carrier-sense range. A
//! frame is delivered at its end time iff the receiver never transmitted
//! during it and it *captured* over every overlapping signal (power ratio
//! ≥ `capture_ratio` under the d⁻⁴ law). Everything else is a collision.
//!
//! The channel is a passive state machine: the harness calls
//! [`Channel::begin_tx`] when a MAC starts transmitting and schedules one
//! end event per transmission on its simulator.
//!
//! The channel retains each transmission's ordered receiver set (ascending
//! node index, the order the harness must complete them in) together with
//! the in-flight frame. When the end event fires, the harness detaches the
//! set ([`Channel::take_tx_receivers`]), completes each receiver's signal
//! ([`Channel::finish_rx_batched`]), hands the set back
//! ([`Channel::recycle_receivers`]) and retires the transmission
//! ([`Channel::finish_tx_batched`]). Receiver vectors are recycled through
//! an internal pool — steady-state transmissions allocate nothing.

use std::collections::VecDeque;

use slr_netsim::time::{SimDuration, SimTime};

use crate::frame::Frame;
use crate::medium::NeighborQuery;
use crate::phy::PhyConfig;

/// Identifier for one transmission on the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(u64);

/// One signal as perceived by one receiver.
#[derive(Debug, Clone, Copy)]
struct Signal {
    tx: TxId,
    power: f64,
    receivable: bool,
    corrupted: bool,
}

const NO_SIGNAL: Signal = Signal {
    tx: TxId(u64::MAX),
    power: 0.0,
    receivable: false,
    corrupted: false,
};

/// Signals held inline per node before spilling to the heap. Dense trials
/// average ~3 concurrent audible signals per node; 3 inline entries plus
/// the node's `tx_until` keep the common case in two cache lines, where
/// the old `Vec<Vec<Signal>>` layout paid a second dependent miss on
/// every touch (~100 node-state touches per transmission).
const INLINE_SIGNALS: usize = 3;

/// Per-node radio state: everything `begin_tx` and a signal completion
/// touch for one node, laid out together.
#[derive(Debug, Clone)]
struct NodeState {
    /// End time of the node's own current transmission (`SimTime::ZERO`
    /// when idle); used for half-duplex corruption.
    tx_until: SimTime,
    /// Number of active signals at this node.
    len: u32,
    /// First [`INLINE_SIGNALS`] signals.
    inline: [Signal; INLINE_SIGNALS],
    /// Overflow beyond the inline capacity (rarely touched).
    spill: Vec<Signal>,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            tx_until: SimTime::ZERO,
            len: 0,
            inline: [NO_SIGNAL; INLINE_SIGNALS],
            spill: Vec::new(),
        }
    }

    fn is_busy(&self) -> bool {
        self.len > 0
    }

    fn signal(&self, i: usize) -> &Signal {
        if i < INLINE_SIGNALS {
            &self.inline[i]
        } else {
            &self.spill[i - INLINE_SIGNALS]
        }
    }

    fn signal_mut(&mut self, i: usize) -> &mut Signal {
        if i < INLINE_SIGNALS {
            &mut self.inline[i]
        } else {
            &mut self.spill[i - INLINE_SIGNALS]
        }
    }

    fn push(&mut self, s: Signal) {
        let i = self.len as usize;
        if i < INLINE_SIGNALS {
            self.inline[i] = s;
        } else {
            self.spill.push(s);
        }
        self.len += 1;
    }

    /// Removes the signal at `i` by swapping the last one in (order in
    /// the signal set carries no meaning: capture checks are pairwise and
    /// commutative, lookups are by unique tx id).
    fn swap_remove(&mut self, i: usize) -> Signal {
        let last = self.len as usize - 1;
        let out = *self.signal(i);
        if i != last {
            *self.signal_mut(i) = *self.signal(last);
        }
        if last >= INLINE_SIGNALS {
            self.spill.pop();
        }
        self.len -= 1;
        out
    }

    fn position_of(&self, tx: TxId) -> Option<usize> {
        (0..self.len as usize).find(|&i| self.signal(i).tx == tx)
    }
}

/// One entry of a transmission's retained receiver set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receiver {
    /// The perceiving node.
    pub node: u32,
    /// Whether this node's medium transitioned idle → busy when the
    /// transmission started (its MAC needs a busy notification).
    pub fresh_busy: bool,
}

/// Result of starting a transmission. The receiver set itself stays with
/// the channel — read it via [`Channel::tx_receivers`].
#[derive(Debug, Clone, Copy)]
pub struct BeginTx {
    /// The transmission's id, to be echoed in end events.
    pub tx_id: TxId,
    /// Time the frame occupies the air.
    pub airtime: SimDuration,
    /// Number of nodes perceiving the signal.
    pub receiver_count: usize,
    /// Number of perceiving nodes whose medium transitioned idle → busy
    /// (zero lets the harness skip the busy fan-out entirely).
    pub fresh_busy: usize,
}

/// Result of a signal ending at one receiver.
#[derive(Debug, Clone)]
pub struct FinishRx<P> {
    /// The frame, present iff it was successfully received.
    pub frame: Option<Frame<P>>,
    /// Whether the receiver's medium just transitioned busy → idle.
    pub became_idle: bool,
    /// Whether the signal was receivable but corrupted (collision).
    pub collided: bool,
}

/// Aggregate channel statistics for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Transmissions started.
    pub transmissions: u64,
    /// Frames delivered intact (per receiver).
    pub delivered: u64,
    /// Receivable frames lost to collisions or half-duplex conflicts.
    pub collisions: u64,
}

/// The shared medium for a set of nodes.
pub struct Channel<P> {
    phy: PhyConfig,
    next_tx: u64,
    /// In-flight transmissions, indexed by `tx_id - in_flight_base`.
    /// Transmission ids are monotone and live for one airtime, so the
    /// window stays short; a ring of `Option`s replaces the old hash map
    /// (one hash per lookup was measurable at dense scale).
    in_flight: VecDeque<Option<InFlight<P>>>,
    /// Transmission id of `in_flight[0]`.
    in_flight_base: u64,
    /// Per-node radio state (active signals + own-transmission end).
    nodes: Vec<NodeState>,
    /// Reusable neighbor-query buffer (no per-transmission allocation).
    neighbor_scratch: Vec<(usize, f64)>,
    /// Recycled receiver vectors (no per-transmission allocation).
    receiver_pool: Vec<Vec<Receiver>>,
    /// Statistics.
    pub stats: ChannelStats,
}

struct InFlight<P> {
    frame: Frame<P>,
    /// The perceiving nodes in ascending index order — the order their
    /// signals must be completed in.
    receivers: Vec<Receiver>,
}

impl<P: Clone> Channel<P> {
    /// Creates a channel for `n` nodes.
    pub fn new(n: usize, phy: PhyConfig) -> Self {
        Channel {
            phy,
            next_tx: 0,
            in_flight: VecDeque::new(),
            in_flight_base: 0,
            nodes: vec![NodeState::new(); n],
            neighbor_scratch: Vec::new(),
            receiver_pool: Vec::new(),
            stats: ChannelStats::default(),
        }
    }

    /// The PHY configuration in use.
    pub fn phy(&self) -> &PhyConfig {
        &self.phy
    }

    /// Live heap bytes of the channel's per-node radio state, in-flight
    /// window, and recycled scratch.
    pub fn mem_bytes(&self) -> usize {
        let rx = std::mem::size_of::<Receiver>();
        self.in_flight.capacity() * std::mem::size_of::<Option<InFlight<P>>>()
            + self
                .in_flight
                .iter()
                .flatten()
                .map(|f| f.receivers.capacity() * rx)
                .sum::<usize>()
            + self.nodes.capacity() * std::mem::size_of::<NodeState>()
            + self
                .nodes
                .iter()
                .map(|n| n.spill.capacity() * std::mem::size_of::<Signal>())
                .sum::<usize>()
            + self.neighbor_scratch.capacity() * std::mem::size_of::<(usize, f64)>()
            + self
                .receiver_pool
                .iter()
                .map(|v| v.capacity() * rx)
                .sum::<usize>()
    }

    /// Whether `node`'s medium is physically busy (any audible signal).
    pub fn is_busy(&self, node: usize) -> bool {
        self.nodes[node].is_busy()
    }

    /// Starts a transmission by `frame.src` at `now`; `medium` answers
    /// exact node positions at `now` and the carrier-sense-range neighbor
    /// set ([`BruteForceMedium`](crate::medium::BruteForceMedium) over a
    /// position slice is the reference implementation). The caller must
    /// schedule one completion event at `now + airtime` and, when it
    /// fires, complete the receivers in ascending node order, then the
    /// transmitter (see the module docs).
    pub fn begin_tx(
        &mut self,
        frame: Frame<P>,
        now: SimTime,
        medium: &dyn NeighborQuery,
    ) -> BeginTx {
        // The trivial gate monomorphizes away — scenarios without a
        // dynamics layer pay nothing per receiver.
        self.begin_tx_gated(frame, now, medium, |_, _| true)
    }

    /// Like [`Channel::begin_tx`], but consults an admittance `gate` per
    /// `(src, receiver)` pair: a gated receiver does not perceive the
    /// signal at all — no reception, no carrier sense — as if an RF
    /// barrier stood on the link. Network-dynamics layers (link churn,
    /// partitions, node crashes) plug in here; a unicast frame whose
    /// destination is gated is lost in the air, so the transmitter's MAC
    /// exhausts its retries and reports a link failure to the routing
    /// layer exactly as with a physical range break.
    pub fn begin_tx_gated(
        &mut self,
        frame: Frame<P>,
        now: SimTime,
        medium: &dyn NeighborQuery,
        gate: impl Fn(usize, usize) -> bool,
    ) -> BeginTx {
        let src = frame.src;
        let airtime = self.phy.airtime(frame.bytes);
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        self.stats.transmissions += 1;

        let end = now + airtime;
        self.nodes[src].tx_until = end;

        // The transmitter's own in-flight receptions are corrupted
        // (half-duplex).
        let tx_node = &mut self.nodes[src];
        for i in 0..tx_node.len as usize {
            tx_node.signal_mut(i).corrupted = true;
        }

        let mut audible = std::mem::take(&mut self.neighbor_scratch);
        audible.clear();
        medium.neighbors_within(src, self.phy.cs_range_m, &mut audible);
        let mut receivers = self.receiver_pool.pop().unwrap_or_default();
        debug_assert!(receivers.is_empty());
        let mut fresh_busy = 0usize;
        for &(v, d) in &audible {
            if !gate(src, v) {
                continue;
            }
            let node = &mut self.nodes[v];
            let power = self.phy.rx_power(d);
            let mut new_sig = Signal {
                tx: id,
                power,
                receivable: self.phy.receivable(d),
                corrupted: node.tx_until > now,
            };
            // Pairwise capture against overlapping signals.
            for i in 0..node.len as usize {
                let old = node.signal_mut(i);
                if !self.phy.captures(old.power, new_sig.power) {
                    old.corrupted = true;
                }
                if !self.phy.captures(new_sig.power, old.power) {
                    new_sig.corrupted = true;
                }
            }
            let was_idle = !node.is_busy();
            node.push(new_sig);
            fresh_busy += usize::from(was_idle);
            receivers.push(Receiver {
                node: v as u32,
                fresh_busy: was_idle,
            });
        }
        self.neighbor_scratch = audible;

        let receiver_count = receivers.len();
        debug_assert_eq!(id.0, self.in_flight_base + self.in_flight.len() as u64);
        self.in_flight
            .push_back(Some(InFlight { frame, receivers }));
        BeginTx {
            tx_id: id,
            airtime,
            receiver_count,
            fresh_busy,
        }
    }

    /// The retained receiver set of in-flight transmission `tx_id`, in
    /// ascending node order.
    pub fn tx_receivers(&self, tx_id: TxId) -> &[Receiver] {
        &self.entry(tx_id).receivers
    }

    /// Detaches `tx_id`'s receiver set so the harness can walk it while
    /// calling back into the channel ([`Channel::finish_rx_batched`] per
    /// entry, then [`Channel::finish_tx_batched`]). Return it afterwards
    /// via [`Channel::recycle_receivers`] to keep transmissions
    /// allocation-free.
    pub fn take_tx_receivers(&mut self, tx_id: TxId) -> Vec<Receiver> {
        let idx = self.index_of(tx_id);
        let entry = self.in_flight[idx]
            .as_mut()
            .expect("receivers of completed tx");
        std::mem::take(&mut entry.receivers)
    }

    /// Returns a receiver vector obtained from
    /// [`Channel::take_tx_receivers`] to the internal pool.
    pub fn recycle_receivers(&mut self, mut receivers: Vec<Receiver>) {
        receivers.clear();
        self.receiver_pool.push(receivers);
    }

    /// Quarantines `node`'s in-flight receptions after a crash: the dead
    /// radio cannot decode them, so their eventual completion must count
    /// neither a delivery nor a collision — a fresh post-rejoin MAC would
    /// otherwise inherit phantom statistics. The signals keep occupying
    /// the node's medium (the RF energy is real and still interferes with
    /// later arrivals); only their receivability is gone.
    pub fn crash_receiver(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        for i in 0..n.len as usize {
            n.signal_mut(i).receivable = false;
        }
    }

    /// Completes the signal of transmission `tx_id` at `node`, one
    /// receiver of the completion walk: the caller completes every
    /// receiver of `tx_id` and ends the walk with
    /// [`Channel::finish_tx_batched`].
    pub fn finish_rx_batched(&mut self, node: usize, tx_id: TxId, now: SimTime) -> FinishRx<P> {
        let frames = TxFrames {
            in_flight: &self.in_flight,
            base: self.in_flight_base,
        };
        complete_signal(
            &mut self.nodes[node],
            &frames,
            tx_id,
            now,
            &mut self.stats.delivered,
            &mut self.stats.collisions,
        )
    }

    /// Ends a completion walk: retires `tx_id` and advances the in-flight
    /// window past completed transmissions.
    pub fn finish_tx_batched(&mut self, tx_id: TxId) {
        let idx = self.index_of(tx_id);
        // The walk detached the receiver vector already; dropping the
        // leftover empty one frees nothing.
        let _ = self.in_flight[idx].take().expect("in-flight tx");
        while matches!(self.in_flight.front(), Some(None)) {
            self.in_flight.pop_front();
            self.in_flight_base += 1;
        }
    }

    /// Splits the per-node radio state into disjoint shards at the given
    /// ascending node `bounds` (`bounds[w]..bounds[w+1]` is shard `w`;
    /// `bounds` must start at 0 and end at the node count), alongside a
    /// shared read-only view of the in-flight frame table. The parallel
    /// event engine hands each worker its shard: signal completions only
    /// ever touch the completing receiver's own [`NodeState`] plus the
    /// (frozen, read-only) in-flight table, so disjoint node ranges
    /// commute. Per-shard `delivered`/`collisions` deltas must be folded
    /// back into [`Channel::stats`] by the caller afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not an ascending cover of `0..nodes`.
    pub fn par_views(&mut self, bounds: &[usize]) -> (TxFrames<'_, P>, Vec<ChannelShard<'_>>) {
        assert!(bounds.len() >= 2, "need at least one shard");
        assert_eq!(*bounds.first().unwrap(), 0, "bounds must start at 0");
        assert_eq!(
            *bounds.last().unwrap(),
            self.nodes.len(),
            "bounds must cover every node"
        );
        let frames = TxFrames {
            in_flight: &self.in_flight,
            base: self.in_flight_base,
        };
        let mut shards = Vec::with_capacity(bounds.len() - 1);
        let mut rest: &mut [NodeState] = &mut self.nodes;
        let mut offset = 0usize;
        for w in 0..bounds.len() - 1 {
            let len = bounds[w + 1]
                .checked_sub(bounds[w])
                .expect("bounds must ascend");
            let (head, tail) = rest.split_at_mut(len);
            shards.push(ChannelShard {
                nodes: head,
                offset,
                delivered: 0,
                collisions: 0,
            });
            offset += len;
            rest = tail;
        }
        (frames, shards)
    }

    fn index_of(&self, tx_id: TxId) -> usize {
        debug_assert!(tx_id.0 >= self.in_flight_base, "tx already completed");
        (tx_id.0 - self.in_flight_base) as usize
    }

    fn entry(&self, tx_id: TxId) -> &InFlight<P> {
        self.in_flight[self.index_of(tx_id)]
            .as_ref()
            .expect("in-flight tx")
    }
}

/// A shared, read-only view of the channel's in-flight frame table,
/// handed to every [`ChannelShard`] of one [`Channel::par_views`] split.
/// Immutable for the lifetime of the split (no transmission can begin
/// inside a conservative dispatch window), so workers may clone frames
/// from it concurrently — which is why harness payloads must be
/// atomically reference-counted under the parallel engine.
pub struct TxFrames<'a, P> {
    in_flight: &'a VecDeque<Option<InFlight<P>>>,
    base: u64,
}

impl<P: Clone> TxFrames<'_, P> {
    fn frame_of(&self, tx_id: TxId) -> Frame<P> {
        debug_assert!(tx_id.0 >= self.base, "tx already completed");
        self.in_flight[(tx_id.0 - self.base) as usize]
            .as_ref()
            .expect("in-flight tx")
            .frame
            .clone()
    }
}

/// A disjoint slice of per-node radio state (see [`Channel::par_views`]).
/// Signal completions against a shard are identical to
/// [`Channel::finish_rx_batched`] except that the delivery/collision
/// counters accumulate locally — the caller folds them into the channel's
/// stats at merge time (the sums are order-independent, so the fold point
/// cannot perturb determinism).
pub struct ChannelShard<'a> {
    nodes: &'a mut [NodeState],
    offset: usize,
    /// Frames delivered through this shard since the split.
    pub delivered: u64,
    /// Receivable frames lost to collisions through this shard.
    pub collisions: u64,
}

impl ChannelShard<'_> {
    /// Whether `node` belongs to this shard.
    pub fn contains(&self, node: usize) -> bool {
        node >= self.offset && node < self.offset + self.nodes.len()
    }

    /// Whether `node`'s medium is physically busy (shard-local
    /// equivalent of [`Channel::is_busy`]).
    pub fn is_busy(&self, node: usize) -> bool {
        self.nodes[node - self.offset].is_busy()
    }

    /// Completes the signal of `tx_id` at `node` (which must belong to
    /// this shard) — the shard-local equivalent of
    /// [`Channel::finish_rx_batched`].
    pub fn finish_rx<P: Clone>(
        &mut self,
        frames: &TxFrames<'_, P>,
        node: usize,
        tx_id: TxId,
        now: SimTime,
    ) -> FinishRx<P> {
        complete_signal(
            &mut self.nodes[node - self.offset],
            frames,
            tx_id,
            now,
            &mut self.delivered,
            &mut self.collisions,
        )
    }
}

/// The one signal-completion routine behind [`Channel::finish_rx_batched`]
/// and [`ChannelShard::finish_rx`]: both engines — batched and parallel —
/// complete receivers through this exact code, which is what their
/// bit-identity rests on.
fn complete_signal<P: Clone>(
    n: &mut NodeState,
    frames: &TxFrames<'_, P>,
    tx_id: TxId,
    now: SimTime,
    delivered: &mut u64,
    collisions: &mut u64,
) -> FinishRx<P> {
    let idx = n.position_of(tx_id).expect("finish_rx for unknown signal");
    let sig = n.swap_remove(idx);
    let became_idle = !n.is_busy();

    // A node still transmitting at the signal's end cannot have
    // received it (its own tx overlapped the tail).
    let half_duplex = n.tx_until > now;
    let ok = sig.receivable && !sig.corrupted && !half_duplex;
    let collided = sig.receivable && !ok;

    let frame = if ok {
        *delivered += 1;
        Some(frames.frame_of(tx_id))
    } else {
        if collided {
            *collisions += 1;
        }
        None
    };
    FinishRx {
        frame,
        became_idle,
        collided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FrameKind};
    use crate::medium::BruteForceMedium;
    use slr_mobility::Position;

    fn frame(src: usize, dst: Option<usize>) -> Frame<u32> {
        Frame {
            kind: FrameKind::Data,
            src,
            dst,
            bytes: 100,
            nav: SimDuration::ZERO,
            payload: Some(9),
            seq: 0,
        }
    }

    fn positions(coords: &[(f64, f64)]) -> Vec<Position> {
        coords.iter().map(|&(x, y)| Position::new(x, y)).collect()
    }

    /// The receiver set as `(node, fresh_busy)` pairs, for assertions.
    fn receivers_of(ch: &Channel<u32>, tx: TxId) -> Vec<(usize, bool)> {
        ch.tx_receivers(tx)
            .iter()
            .map(|r| (r.node as usize, r.fresh_busy))
            .collect()
    }

    #[test]
    fn clean_delivery_within_range() {
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0), (2000.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(3, PhyConfig::default());
        let t0 = SimTime::ZERO;
        let b = ch.begin_tx(frame(0, Some(1)), t0, &BruteForceMedium(&pos));
        // Node 1 in range, node 2 far outside carrier sense.
        assert_eq!(receivers_of(&ch, b.tx_id), vec![(1, true)]);
        assert_eq!((b.receiver_count, b.fresh_busy), (1, 1));
        assert!(ch.is_busy(1));
        let end = t0 + b.airtime;
        let r = ch.finish_rx_batched(1, b.tx_id, end);
        assert!(r.frame.is_some());
        assert!(r.became_idle);
        assert!(!r.collided);
        ch.finish_tx_batched(b.tx_id);
        assert_eq!(ch.stats.delivered, 1);
        assert_eq!(ch.stats.collisions, 0);
    }

    #[test]
    fn gated_receiver_perceives_nothing() {
        // Node 1 is well inside range but the admittance gate blocks the
        // 0→1 link: no signal, no carrier sense, no collision accounting.
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0), (150.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(3, PhyConfig::default());
        let b = ch.begin_tx_gated(
            frame(0, Some(1)),
            SimTime::ZERO,
            &BruteForceMedium(&pos),
            |s, v| !(s == 0 && v == 1),
        );
        assert_eq!(
            receivers_of(&ch, b.tx_id),
            vec![(2, true)],
            "gated node 1 must not appear"
        );
        assert!(
            !ch.is_busy(1),
            "gated signal must not occupy node 1's medium"
        );
        let r = ch.finish_rx_batched(2, b.tx_id, SimTime::ZERO + b.airtime);
        assert!(r.frame.is_some());
        ch.finish_tx_batched(b.tx_id);
        assert_eq!(ch.stats.delivered, 1);
        assert_eq!(ch.stats.collisions, 0);
    }

    #[test]
    fn audible_but_not_receivable() {
        // 400 m: inside carrier sense (550) but outside reception (250).
        let pos = positions(&[(0.0, 0.0), (400.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(2, PhyConfig::default());
        let b = ch.begin_tx(frame(0, Some(1)), SimTime::ZERO, &BruteForceMedium(&pos));
        assert_eq!(b.receiver_count, 1);
        assert!(ch.is_busy(1));
        let r = ch.finish_rx_batched(1, b.tx_id, SimTime::ZERO + b.airtime);
        assert!(r.frame.is_none());
        assert!(!r.collided, "sub-threshold signal is not a collision");
        ch.finish_tx_batched(b.tx_id);
    }

    #[test]
    fn overlapping_equal_power_collides() {
        // Nodes 0 and 2 both 100 m from node 1, transmit simultaneously.
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(3, PhyConfig::default());
        let a = ch.begin_tx(frame(0, Some(1)), SimTime::ZERO, &BruteForceMedium(&pos));
        let b = ch.begin_tx(frame(2, Some(1)), SimTime::ZERO, &BruteForceMedium(&pos));
        let end = SimTime::ZERO + a.airtime;
        let ra = ch.finish_rx_batched(1, a.tx_id, end);
        let rb = ch.finish_rx_batched(1, b.tx_id, end);
        assert!(ra.frame.is_none() && rb.frame.is_none());
        assert!(ra.collided && rb.collided);
        assert_eq!(ch.stats.collisions, 2);
        ch.finish_tx_batched(a.tx_id);
        ch.finish_tx_batched(b.tx_id);
    }

    #[test]
    fn capture_lets_strong_frame_through() {
        // Node 1 hears node 0 at 50 m and node 2 at 200 m: power ratio
        // (200/50)^4 = 256 ≥ 10 → node 0's frame captures.
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (250.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(3, PhyConfig::default());
        let a = ch.begin_tx(frame(0, Some(1)), SimTime::ZERO, &BruteForceMedium(&pos));
        let b = ch.begin_tx(frame(2, Some(1)), SimTime::ZERO, &BruteForceMedium(&pos));
        let end = SimTime::ZERO + a.airtime;
        let ra = ch.finish_rx_batched(1, a.tx_id, end);
        let rb = ch.finish_rx_batched(1, b.tx_id, end);
        assert!(ra.frame.is_some(), "strong frame should capture");
        assert!(rb.frame.is_none(), "weak frame is lost");
        ch.finish_tx_batched(a.tx_id);
        ch.finish_tx_batched(b.tx_id);
    }

    #[test]
    fn half_duplex_blocks_reception() {
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(2, PhyConfig::default());
        // Node 1 starts transmitting first.
        let own = ch.begin_tx(frame(1, None), SimTime::ZERO, &BruteForceMedium(&pos));
        // Node 0 transmits to node 1 while node 1 is busy sending.
        let a = ch.begin_tx(frame(0, Some(1)), SimTime::ZERO, &BruteForceMedium(&pos));
        let end = SimTime::ZERO + a.airtime;
        let r = ch.finish_rx_batched(1, a.tx_id, end);
        assert!(r.frame.is_none(), "transmitting node cannot receive");
        // Drain remaining bookkeeping.
        let r0 = ch.finish_rx_batched(0, own.tx_id, SimTime::ZERO + own.airtime);
        assert!(r0.frame.is_none(), "0 was transmitting too");
        ch.finish_tx_batched(own.tx_id);
        ch.finish_tx_batched(a.tx_id);
    }

    #[test]
    fn busy_transitions_are_reported() {
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0), (150.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(3, PhyConfig::default());
        let a = ch.begin_tx(frame(0, None), SimTime::ZERO, &BruteForceMedium(&pos));
        // Both 1 and 2 become busy.
        assert_eq!(receivers_of(&ch, a.tx_id), vec![(1, true), (2, true)]);
        assert_eq!(a.fresh_busy, 2);
        // A second overlapping tx does not re-report busy.
        let b = ch.begin_tx(frame(1, None), SimTime::ZERO, &BruteForceMedium(&pos));
        assert_eq!(receivers_of(&ch, b.tx_id), vec![(0, true), (2, false)]);
        assert_eq!(b.fresh_busy, 1);
        // End of first signal at node 2: still busy with second.
        let end = SimTime::ZERO + a.airtime;
        let r = ch.finish_rx_batched(2, a.tx_id, end);
        assert!(!r.became_idle);
        let r2 = ch.finish_rx_batched(2, b.tx_id, SimTime::ZERO + b.airtime);
        assert!(r2.became_idle);
        // Cleanup others.
        ch.finish_rx_batched(1, a.tx_id, end);
        ch.finish_rx_batched(0, b.tx_id, SimTime::ZERO + b.airtime);
        ch.finish_tx_batched(a.tx_id);
        ch.finish_tx_batched(b.tx_id);
    }

    #[test]
    fn take_and_recycle_receivers_round_trip() {
        // The batched-completion walk: detach the set, finish each signal,
        // finish the transmitter, hand the vector back. A later tx reuses
        // the pooled vector (observable as equal capacity growth, not
        // asserted — this guards the bookkeeping, not the allocator).
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0), (150.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(3, PhyConfig::default());
        let b = ch.begin_tx(frame(0, None), SimTime::ZERO, &BruteForceMedium(&pos));
        let set = ch.take_tx_receivers(b.tx_id);
        assert_eq!(set.len(), 2);
        let end = SimTime::ZERO + b.airtime;
        for r in &set {
            let fin = ch.finish_rx_batched(r.node as usize, b.tx_id, end);
            assert!(fin.frame.is_some());
        }
        ch.recycle_receivers(set);
        ch.finish_tx_batched(b.tx_id);
        assert_eq!(ch.stats.delivered, 2);
        // The window advanced: a new tx starts cleanly.
        let c = ch.begin_tx(frame(1, None), end, &BruteForceMedium(&pos));
        assert_eq!(c.receiver_count, 2);
    }

    /// The sharded completion path must be byte-for-byte the batched
    /// walk: same outcomes, same stat totals, regardless of how the node
    /// range is cut.
    #[test]
    fn sharded_finish_rx_matches_batched_walk() {
        let coords = &[(0.0, 0.0), (100.0, 0.0), (150.0, 0.0), (220.0, 0.0)];
        let run = |bounds: &[usize]| {
            let pos = positions(coords);
            let mut ch: Channel<u32> = Channel::new(4, PhyConfig::default());
            let a = ch.begin_tx(frame(0, None), SimTime::ZERO, &BruteForceMedium(&pos));
            let b = ch.begin_tx(frame(3, None), SimTime::ZERO, &BruteForceMedium(&pos));
            let end = SimTime::ZERO + a.airtime;
            let ra = ch.take_tx_receivers(a.tx_id);
            let rb = ch.take_tx_receivers(b.tx_id);
            let mut outcomes = Vec::new();
            {
                let (frames, mut shards) = ch.par_views(bounds);
                for (tx, set) in [(a.tx_id, &ra), (b.tx_id, &rb)] {
                    for r in set {
                        let node = r.node as usize;
                        let s = shards
                            .iter_mut()
                            .find(|s| s.contains(node))
                            .expect("owner shard");
                        let fin = s.finish_rx(&frames, node, tx, end);
                        outcomes.push((node, fin.frame.is_some(), fin.became_idle, fin.collided));
                    }
                }
                let (d, c) = shards
                    .iter()
                    .fold((0, 0), |(d, c), s| (d + s.delivered, c + s.collisions));
                ch.stats.delivered += d;
                ch.stats.collisions += c;
            }
            ch.recycle_receivers(ra);
            ch.recycle_receivers(rb);
            ch.finish_tx_batched(a.tx_id);
            ch.finish_tx_batched(b.tx_id);
            (outcomes, ch.stats)
        };
        let whole = run(&[0, 4]);
        let split = run(&[0, 1, 2, 4]);
        let ragged = run(&[0, 3, 3, 4]); // empty middle shard is legal
        assert_eq!(whole, split);
        assert_eq!(whole, ragged);
        assert!(whole.1.delivered > 0, "fixture delivers something");
    }

    #[test]
    fn crashed_receiver_counts_neither_delivery_nor_collision() {
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(2, PhyConfig::default());
        let b = ch.begin_tx(frame(0, Some(1)), SimTime::ZERO, &BruteForceMedium(&pos));
        // Node 1 crashes mid-reception: the signal still occupies its
        // medium but can no longer be decoded.
        ch.crash_receiver(1);
        assert!(ch.is_busy(1), "RF energy outlives the crashed radio");
        let r = ch.finish_rx_batched(1, b.tx_id, SimTime::ZERO + b.airtime);
        assert!(r.frame.is_none(), "dead radio cannot decode");
        assert!(!r.collided, "an undecodable signal is not a collision");
        assert!(r.became_idle);
        ch.finish_tx_batched(b.tx_id);
        assert_eq!(ch.stats.delivered, 0);
        assert_eq!(ch.stats.collisions, 0);
    }

    #[test]
    fn crashed_receiver_signal_still_interferes() {
        // Node 1 hears node 0 (strong) while crashed; node 2's later weak
        // frame must still lose the capture contest against the lingering
        // RF energy — physics does not reboot with the node.
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (250.0, 0.0)]);
        let mut ch: Channel<u32> = Channel::new(3, PhyConfig::default());
        let a = ch.begin_tx(frame(0, None), SimTime::ZERO, &BruteForceMedium(&pos));
        ch.crash_receiver(1);
        let b = ch.begin_tx(frame(2, Some(1)), SimTime::ZERO, &BruteForceMedium(&pos));
        let end = SimTime::ZERO + a.airtime;
        let ra = ch.finish_rx_batched(1, a.tx_id, end);
        assert!(ra.frame.is_none() && !ra.collided, "quarantined");
        // The weak frame was corrupted by the strong lingering signal;
        // node 1 rejoined in the meantime, so it *does* count a collision.
        let rb = ch.finish_rx_batched(1, b.tx_id, SimTime::ZERO + b.airtime);
        assert!(rb.frame.is_none());
        assert!(rb.collided, "post-rejoin loss to interference is real");
        ch.finish_rx_batched(2, a.tx_id, end);
        ch.finish_tx_batched(a.tx_id);
        ch.finish_tx_batched(b.tx_id);
    }
}
