//! On-demand route discovery, shared by SRP, AODV, DSR and LDR.
//!
//! Procedure 1 of the paper (*Initiate Solicitation*) is one policy for
//! all four protocols of §V: hold the packet, flood a request on the
//! expanding ring, retry after `2 × TTL × per-hop latency`, give up after
//! the last ring. [`Discovery`] owns that whole decision — the
//! route-pending [`PacketBuffer`], the per-destination attempt table, the
//! timer-token codec, the buffer-timeout sweep, the overflow and give-up
//! drops — the per-destination RERR rate limiter, and the flood log:
//! request ids, Procedure 2's duplicate suppression and one age sweep
//! over the log and the RERR stamps.
//!
//! It never branches on which protocol calls it. It emits the drops and
//! arms the timer; the caller floods its own request in between, so every
//! protocol's effects come out as drops → request → timer. What stays
//! with the protocol is the request itself, the relay state it logs with
//! each flood (`()` for AODV and DSR, the reverse hop for LDR, that plus
//! the cached solicitation for SRP), and the retry predicate: what a
//! timer does when a route appeared while it ran (AODV, LDR and SRP
//! cancel the discovery, DSR flushes the buffer).

use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::VecMap;

use crate::api::{DataDropReason, DataPacket, NodeId, ProtoEffect};

/// The expanding ring: the flood TTL of each attempt, in order.
pub const RING: [u8; 3] = [5, 16, 64];

/// Discovery timer tokens carry this bit; every other bit of a protocol's
/// token space is its own.
const TOKEN_BIT: u64 = 1 << 63;

/// Discovery tunables. [`Discovery`] does not keep a copy (at 100 000
/// nodes that copy is 3 MB): its owner passes them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoveryConfig {
    /// Per-hop latency estimate behind the ring timeouts.
    pub per_hop_latency: SimDuration,
    /// Route-pending buffer capacity.
    pub buffer_capacity: usize,
    /// Maximum time a packet may wait for a route.
    pub buffer_timeout: SimDuration,
    /// Minimum spacing between RERRs for the same destination.
    pub rerr_rate_limit: SimDuration,
    /// Retention horizon of the flood log. An entry is consulted only
    /// while a copy of its request or reply can still arrive, within the
    /// largest ring timeout (2 × 64 hops × per-hop latency ≈ 5 s).
    pub rreq_cache_lifetime: SimDuration,
}

impl DiscoveryConfig {
    /// The values every protocol runs with in a trial.
    pub const DEFAULT: DiscoveryConfig = DiscoveryConfig {
        per_hop_latency: SimDuration::from_millis(40),
        buffer_capacity: 64,
        buffer_timeout: SimDuration::from_secs(30),
        rerr_rate_limit: SimDuration::from_secs(1),
        rreq_cache_lifetime: SimDuration::from_secs(120),
    };

    /// Arms the timeout of the ring the caller has just flooded.
    pub fn arm(&self, ring: Attempt, fx: &mut Vec<ProtoEffect>) {
        let delay = self.per_hop_latency.saturating_mul(2 * ring.ttl() as u64);
        fx.push(ProtoEffect::SetTimer {
            token: ring.token(),
            delay,
        });
    }
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// One ring of a discovery: the sought destination and the 0-based
/// attempt, an index into [`RING`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// The destination sought.
    pub dst: NodeId,
    /// Which ring this is.
    pub n: u32,
}

impl Attempt {
    /// The flood TTL of this ring.
    pub fn ttl(self) -> u8 {
        RING[self.n as usize]
    }

    /// The timer token that reports this ring's timeout: bit 63, a 31-bit
    /// attempt, a 32-bit destination.
    pub fn token(self) -> u64 {
        TOKEN_BIT | ((self.n as u64) << 32) | self.dst as u64
    }
}

fn decode_token(token: u64) -> Option<Attempt> {
    if token & TOKEN_BIT == 0 {
        return None;
    }
    Some(Attempt {
        dst: (token & 0xFFFF_FFFF) as NodeId,
        n: ((token >> 32) & 0x7FFF_FFFF) as u32,
    })
}

/// A flood: its originator and the request id the originator gave it.
pub type FloodId = (NodeId, u64);

/// A flood-log entry: when this node first saw the flood, and the relay
/// state its protocol keeps for it.
pub(crate) type Flood<F> = (SimTime, F);

/// One node's discovery state: held packets, live attempts, RERR stamps
/// and the flood log, whose entries carry the protocol's relay state `F`.
#[derive(Debug, Clone)]
pub struct Discovery<F = ()> {
    buffer: PacketBuffer,
    /// Destination → the attempt its in-progress discovery is on.
    attempts: VecMap<NodeId, u32>,
    /// Destination → when this node last reported it unreachable.
    last_rerr: VecMap<NodeId, SimTime>,
    /// Every flood seen since the last sweep or within one lifetime
    /// before it, this node's own included.
    floods: VecMap<FloodId, Flood<F>>,
    /// The request id of the last flood this node originated.
    last_rreq_id: u64,
    /// When [`Discovery::sweep`] next does any work.
    next_sweep_at: SimTime,
    started: u64,
}

impl<F> Discovery<F> {
    /// Empty state, holding at most `cfg.buffer_capacity` packets.
    pub fn new(cfg: &DiscoveryConfig) -> Self {
        Discovery {
            buffer: PacketBuffer::new(cfg.buffer_capacity),
            attempts: VecMap::new(),
            last_rerr: VecMap::new(),
            floods: VecMap::new(),
            last_rreq_id: 0,
            next_sweep_at: SimTime::ZERO,
            started: 0,
        }
    }

    /// Holds `packet` until a route to its destination appears — a full
    /// buffer hands it back as a [`DataDropReason::BufferOverflow`] drop —
    /// and starts a discovery unless one is already running. Returns the
    /// first ring for the caller to flood, then [`DiscoveryConfig::arm`].
    pub fn hold(
        &mut self,
        packet: DataPacket,
        now: SimTime,
        fx: &mut Vec<ProtoEffect>,
    ) -> Option<Attempt> {
        let dst = packet.dst;
        if let Some(packet) = self.buffer.push(packet, now) {
            fx.push(ProtoEffect::DropData {
                packet,
                reason: DataDropReason::BufferOverflow,
            });
        }
        if self.attempts.contains_key(&dst) {
            return None;
        }
        self.started += 1;
        self.attempts.insert(dst, 0);
        Some(Attempt { dst, n: 0 })
    }

    /// The shared start of every timer: runs [`Discovery::sweep`], drops
    /// the packets held longer than the buffer timeout, then returns the
    /// attempt `token` reports if it is a discovery's current one (`None`
    /// for stale and foreign tokens).
    pub fn on_timer(
        &mut self,
        cfg: &DiscoveryConfig,
        token: u64,
        now: SimTime,
        fx: &mut Vec<ProtoEffect>,
    ) -> Option<Attempt> {
        self.sweep(cfg, now);
        let expired = self.buffer.take_expired(now, cfg.buffer_timeout);
        drop_all(expired, DataDropReason::BufferTimeout, fx);
        let due = decode_token(token)?;
        (self.attempts.get(&due.dst) == Some(&due.n)).then_some(due)
    }

    /// Ring `due` timed out with no route: returns the next ring for the
    /// caller to flood, or — past the last ring — gives up, dropping every
    /// packet held for the destination with [`DataDropReason::NoRoute`].
    pub fn retry(&mut self, due: Attempt, fx: &mut Vec<ProtoEffect>) -> Option<Attempt> {
        self.attempts.remove(&due.dst);
        self.started += 1;
        let next = Attempt {
            dst: due.dst,
            n: due.n + 1,
        };
        if next.n as usize >= RING.len() {
            drop_all(self.buffer.take_for(due.dst), DataDropReason::NoRoute, fx);
            return None;
        }
        self.attempts.insert(next.dst, next.n);
        Some(next)
    }

    /// Ends the discovery for `dst`, leaving its packets held.
    pub fn cancel(&mut self, dst: NodeId) {
        self.attempts.remove(&dst);
    }

    /// Ends the discovery for `dst` and hands back the packets held for
    /// it, in arrival order, for [`forward_all`].
    pub fn settle(&mut self, dst: NodeId) -> Vec<DataPacket> {
        self.cancel(dst);
        self.buffer.take_for(dst)
    }

    /// The held packets.
    pub fn buffer(&self) -> &PacketBuffer {
        &self.buffer
    }

    /// Whether any discovery is in progress.
    pub fn is_idle(&self) -> bool {
        self.attempts.is_empty()
    }

    /// The per-destination RERR rate limiter: keeps the entries of `lost`
    /// whose destination was not reported within the rate limit, stamps
    /// them, and returns them — `None` when nothing is left to report.
    pub fn rerr_due<T>(
        &mut self,
        cfg: &DiscoveryConfig,
        mut lost: Vec<T>,
        dst_of: impl Fn(&T) -> NodeId,
        now: SimTime,
    ) -> Option<Vec<T>> {
        let limit = cfg.rerr_rate_limit;
        lost.retain(|d| {
            self.last_rerr
                .get(&dst_of(d))
                .map(|t| now.saturating_since(*t) >= limit)
                .unwrap_or(true)
        });
        for d in &lost {
            self.last_rerr.insert(dst_of(d), now);
        }
        (!lost.is_empty()).then_some(lost)
    }

    /// Takes the request id for a flood `node` originates and logs the
    /// flood with relay state `relay`, so its echoes are duplicates.
    pub fn originate(&mut self, node: NodeId, now: SimTime, relay: F) -> u64 {
        self.last_rreq_id += 1;
        self.floods.insert((node, self.last_rreq_id), (now, relay));
        self.last_rreq_id
    }

    /// Procedure 2's duplicate test. The first copy of flood `id` is
    /// logged with relay state `relay()` and answers `true`; a flood
    /// already in the log answers `false` and changes nothing.
    pub fn first_sight(&mut self, id: FloodId, now: SimTime, relay: impl FnOnce() -> F) -> bool {
        if self.floods.contains_key(&id) {
            return false;
        }
        self.floods.insert(id, (now, relay()));
        true
    }

    /// The relay state logged for flood `id`.
    pub fn flood(&self, id: FloodId) -> Option<&F> {
        self.floods.get(&id).map(|(_, relay)| relay)
    }

    /// Mutable access to the relay state logged for flood `id`.
    pub fn flood_mut(&mut self, id: FloodId) -> Option<&mut F> {
        self.floods.get_mut(&id).map(|(_, relay)| relay)
    }

    /// The retention sweep: forgets floods first seen a
    /// [`DiscoveryConfig::rreq_cache_lifetime`] ago or longer, and RERR
    /// stamps old enough to be no-ops. Does work at most once per
    /// lifetime, so the log holds at most two lifetimes of floods and
    /// costs nothing between sweeps. Protocols call it at the top of
    /// request handling; [`Discovery::on_timer`] calls it on every timer.
    pub fn sweep(&mut self, cfg: &DiscoveryConfig, now: SimTime) {
        if now < self.next_sweep_at {
            return;
        }
        let lifetime = cfg.rreq_cache_lifetime;
        self.next_sweep_at = now + lifetime;
        self.floods
            .retain(|_, (seen_at, _)| now.saturating_since(*seen_at) < lifetime);
        self.floods.shrink_to_fit();
        let limit = cfg.rerr_rate_limit;
        self.last_rerr
            .retain(|_, t| now.saturating_since(*t) < limit);
        self.last_rerr.shrink_to_fit();
    }

    /// Discoveries started, retries included (the [`crate::ProtoStats`]
    /// count).
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Live heap bytes: the attempt table, the RERR stamps, the flood log
    /// and the buffer.
    pub fn mem_bytes(&self) -> usize {
        self.attempts.mem_bytes()
            + self.last_rerr.mem_bytes()
            + self.floods.mem_bytes()
            + self.buffer.mem_bytes()
    }

    /// The request id of the last flood this node originated (model
    /// checker state).
    #[cfg(feature = "model-check")]
    pub fn last_rreq_id(&self) -> u64 {
        self.last_rreq_id
    }

    /// When the next sweep does any work (model checker state).
    #[cfg(feature = "model-check")]
    pub fn next_sweep_at(&self) -> SimTime {
        self.next_sweep_at
    }

    /// Canonical serialization for the model checker: the flood log (each
    /// entry's relay state as `relay` writes it), attempts, held packets
    /// and RERR stamps, ages clamped at the horizon that governs them.
    #[cfg(feature = "model-check")]
    pub fn model_canonical(
        &self,
        cfg: &DiscoveryConfig,
        now: SimTime,
        out: &mut Vec<u8>,
        mut relay: impl FnMut(&mut Vec<u8>, &F),
    ) {
        use crate::model::{age, put};
        put(out, 0xA2);
        put(out, self.floods.len() as u64);
        for (id, (seen_at, f)) in self.floods.iter() {
            put(out, id.0 as u64);
            put(out, id.1);
            relay(out, f);
            age(out, now, *seen_at, cfg.rreq_cache_lifetime);
        }

        put(out, 0xA3);
        put(out, self.attempts.len() as u64);
        for (dst, n) in self.attempts.iter() {
            put(out, *dst as u64);
            put(out, *n as u64);
        }

        put(out, 0xA4);
        put(out, self.buffer.len() as u64);
        for (p, enq) in self.buffer.iter() {
            // `origin_time` is a delivery-latency stat, never a protocol
            // input: mask it so the clock cannot leak into the hash.
            put(out, p.src as u64);
            put(out, p.dst as u64);
            put(out, p.uid);
            put(out, p.bytes as u64);
            put(out, p.ttl as u64);
            age(out, now, enq, cfg.buffer_timeout);
        }

        put(out, 0xA5);
        put(out, self.last_rerr.len() as u64);
        for (d, t) in self.last_rerr.iter() {
            put(out, *d as u64);
            age(out, now, *t, cfg.rerr_rate_limit);
        }
    }
}

fn drop_all(packets: Vec<DataPacket>, reason: DataDropReason, fx: &mut Vec<ProtoEffect>) {
    fx.extend(
        packets
            .into_iter()
            .map(|packet| ProtoEffect::DropData { packet, reason }),
    );
}

/// What forwarding a data packet came to: its effects, or the packet
/// back when there is no route.
pub type Forwarded = Result<Vec<ProtoEffect>, DataPacket>;

/// Hands each packet to `forward`; a packet it hands back has no route
/// and is dropped with [`DataDropReason::NoRoute`].
pub fn forward_all(
    packets: Vec<DataPacket>,
    fx: &mut Vec<ProtoEffect>,
    mut forward: impl FnMut(DataPacket) -> Forwarded,
) {
    for packet in packets {
        match forward(packet) {
            Ok(out) => fx.extend(out),
            Err(packet) => fx.push(ProtoEffect::DropData {
                packet,
                reason: DataDropReason::NoRoute,
            }),
        }
    }
}

/// A bounded buffer of data packets awaiting routes, with per-packet
/// arrival times.
#[derive(Debug, Clone, Default)]
pub struct PacketBuffer {
    entries: Vec<(DataPacket, SimTime)>,
    capacity: usize,
}

impl PacketBuffer {
    /// Creates a buffer holding at most `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        PacketBuffer {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Number of buffered packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(packet, enqueued_at)` pairs in arrival order
    /// (introspection for oracles and the model checker's canonical
    /// state serialization).
    pub fn iter(&self) -> impl Iterator<Item = (&DataPacket, SimTime)> {
        self.entries.iter().map(|(p, t)| (p, *t))
    }

    /// Buffers a packet; returns it back if the buffer is full.
    pub fn push(&mut self, packet: DataPacket, now: SimTime) -> Option<DataPacket> {
        if self.entries.len() >= self.capacity {
            return Some(packet);
        }
        self.entries.push((packet, now));
        None
    }

    /// Removes and returns every packet destined to `dst`.
    pub fn take_for(&mut self, dst: NodeId) -> Vec<DataPacket> {
        self.take_where(|p, _| p.dst == dst)
    }

    /// Removes and returns packets buffered longer than `timeout`.
    pub fn take_expired(&mut self, now: SimTime, timeout: SimDuration) -> Vec<DataPacket> {
        self.take_where(|_, t| now.saturating_since(t) > timeout)
    }

    /// Moves out the packets `pick` selects. Taken and kept packets both
    /// stay in arrival order, and the buffer keeps its allocation.
    fn take_where(&mut self, pick: impl Fn(&DataPacket, SimTime) -> bool) -> Vec<DataPacket> {
        if !self.entries.iter().any(|(p, t)| pick(p, *t)) {
            return Vec::new();
        }
        let mut kept = Vec::with_capacity(self.entries.capacity());
        let mut taken = Vec::new();
        for (p, t) in self.entries.drain(..) {
            if pick(&p, t) {
                taken.push(p);
            } else {
                kept.push((p, t));
            }
        }
        self.entries = kept;
        taken
    }

    /// Whether any packet waits for `dst`.
    pub fn has_for(&self, dst: NodeId) -> bool {
        self.entries.iter().any(|(p, _)| p.dst == dst)
    }

    /// Live heap bytes held by the buffer (capacity, since the allocator
    /// holds capacity whether or not entries are live).
    pub fn mem_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(DataPacket, SimTime)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DATA_TTL;

    const CFG: DiscoveryConfig = DiscoveryConfig::DEFAULT;

    fn pkt(src: NodeId, dst: NodeId, uid: u64) -> DataPacket {
        DataPacket {
            src,
            dst,
            uid,
            origin_time: SimTime::ZERO,
            bytes: 512,
            ttl: DATA_TTL,
            source_route: None,
        }
    }

    fn drops(fx: &[ProtoEffect]) -> Vec<(u64, DataDropReason)> {
        fx.iter()
            .filter_map(|e| match e {
                ProtoEffect::DropData { packet, reason } => Some((packet.uid, *reason)),
                _ => None,
            })
            .collect()
    }

    fn timers(fx: &[ProtoEffect]) -> Vec<(u64, SimDuration)> {
        fx.iter()
            .filter_map(|e| match e {
                ProtoEffect::SetTimer { token, delay } => Some((*token, *delay)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn token_round_trips() {
        for n in 0..=2 {
            for dst in [0, 7, u32::MAX as NodeId] {
                let a = Attempt { dst, n };
                assert_eq!(decode_token(a.token()), Some(a));
            }
        }
        assert_eq!(Attempt { dst: 0, n: 0 }.token(), 1 << 63);
        assert_eq!(decode_token(5), None, "tokens without bit 63 are foreign");
    }

    #[test]
    fn ring_schedule() {
        assert_eq!(RING, [5, 16, 64]);
        let mut d: Discovery = Discovery::new(&CFG);
        let mut fx = Vec::new();
        let a = d.hold(pkt(0, 9, 1), SimTime::ZERO, &mut fx).unwrap();
        assert_eq!(a.ttl(), 5);
        CFG.arm(a, &mut fx);
        // 2 × TTL × 40 ms per hop.
        assert_eq!(timers(&fx), [(a.token(), SimDuration::from_millis(400))]);
    }

    #[test]
    fn one_discovery_per_destination() {
        let mut d: Discovery = Discovery::new(&CFG);
        let mut fx = Vec::new();
        assert!(d.hold(pkt(0, 9, 1), SimTime::ZERO, &mut fx).is_some());
        assert!(d.hold(pkt(0, 9, 2), SimTime::ZERO, &mut fx).is_none());
        assert!(d.hold(pkt(0, 8, 3), SimTime::ZERO, &mut fx).is_some());
        assert_eq!(d.started(), 2);
        assert_eq!(d.buffer().len(), 3);
        assert!(fx.is_empty());
    }

    #[test]
    fn stale_attempt_timer_is_ignored() {
        let mut d: Discovery = Discovery::new(&CFG);
        let mut fx = Vec::new();
        let first = d.hold(pkt(0, 9, 1), SimTime::ZERO, &mut fx).unwrap();
        let now = SimTime::from_secs(1);
        let due = d.on_timer(&CFG, first.token(), now, &mut fx).unwrap();
        let second = d.retry(due, &mut fx);
        assert_eq!(second, Some(Attempt { dst: 9, n: 1 }));
        // The first ring's timer fires again (or late): nothing is due.
        assert_eq!(d.on_timer(&CFG, first.token(), now, &mut fx), None);
        // A cancelled discovery's timer is stale too.
        d.cancel(9);
        assert_eq!(
            d.on_timer(&CFG, second.unwrap().token(), now, &mut fx),
            None
        );
        assert!(fx.is_empty());
        assert_eq!(d.buffer().len(), 1, "timers never drop fresh packets");
    }

    #[test]
    fn giving_up_drops_only_that_destinations_packets() {
        let mut d: Discovery = Discovery::new(&CFG);
        let mut fx = Vec::new();
        let now = SimTime::ZERO;
        let mut ring = d.hold(pkt(0, 9, 1), now, &mut fx).unwrap();
        d.hold(pkt(0, 8, 2), now, &mut fx);
        d.hold(pkt(0, 9, 3), now, &mut fx);
        for n in 1..=2 {
            ring = d.retry(ring, &mut fx).unwrap();
            assert_eq!(ring.n, n);
        }
        assert!(fx.is_empty());
        assert_eq!(d.retry(ring, &mut fx), None, "no ring after the last");
        assert_eq!(
            drops(&fx),
            [(1, DataDropReason::NoRoute), (3, DataDropReason::NoRoute)]
        );
        assert!(d.buffer().has_for(8) && !d.buffer().has_for(9));
        assert_eq!(d.started(), 2 + 3, "each retry counts, the give-up too");
        assert!(
            d.hold(pkt(0, 9, 4), now, &mut fx).is_some(),
            "a new packet starts afresh"
        );
    }

    #[test]
    fn overflow_hands_the_new_packet_back() {
        let cfg = DiscoveryConfig {
            buffer_capacity: 2,
            ..DiscoveryConfig::default()
        };
        let mut d: Discovery = Discovery::new(&cfg);
        let mut fx = Vec::new();
        d.hold(pkt(0, 9, 1), SimTime::ZERO, &mut fx);
        d.hold(pkt(0, 9, 2), SimTime::ZERO, &mut fx);
        // The overflowing packet still starts its destination's discovery.
        assert!(d.hold(pkt(0, 8, 3), SimTime::ZERO, &mut fx).is_some());
        assert_eq!(drops(&fx), [(3, DataDropReason::BufferOverflow)]);
        let held: Vec<u64> = d.buffer().iter().map(|(p, _)| p.uid).collect();
        assert_eq!(held, [1, 2]);
    }

    #[test]
    fn buffer_caps_and_takes() {
        let mut b = PacketBuffer::new(2);
        assert!(b.push(pkt(0, 5, 1), SimTime::ZERO).is_none());
        assert!(b.push(pkt(0, 6, 2), SimTime::ZERO).is_none());
        let overflow = b.push(pkt(0, 5, 3), SimTime::ZERO);
        assert_eq!(overflow.unwrap().uid, 3);
        assert!(b.has_for(5));
        let got = b.take_for(5);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].uid, 1);
        assert!(!b.has_for(5));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn buffer_expiry() {
        let mut b = PacketBuffer::new(10);
        b.push(pkt(0, 5, 1), SimTime::from_secs(0));
        b.push(pkt(0, 6, 2), SimTime::from_secs(25));
        let gone = b.take_expired(SimTime::from_secs(31), SimDuration::from_secs(30));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].uid, 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn expiry_sweep_keeps_arrival_order() {
        let mut d: Discovery = Discovery::new(&CFG);
        let mut fx = Vec::new();
        // Interleave old and young packets over two destinations.
        for (uid, (dst, at)) in [(9, 0), (8, 20), (8, 1), (9, 21), (9, 2), (8, 22)]
            .into_iter()
            .enumerate()
        {
            d.hold(pkt(0, dst, uid as u64), SimTime::from_secs(at), &mut fx);
        }
        let capacity = d.buffer().mem_bytes();
        assert_eq!(d.on_timer(&CFG, 0, SimTime::from_secs(40), &mut fx), None);
        assert_eq!(
            drops(&fx),
            [
                (0, DataDropReason::BufferTimeout),
                (2, DataDropReason::BufferTimeout),
                (4, DataDropReason::BufferTimeout)
            ]
        );
        let kept: Vec<u64> = d.buffer().iter().map(|(p, _)| p.uid).collect();
        assert_eq!(kept, [1, 3, 5]);
        assert_eq!(
            d.buffer().mem_bytes(),
            capacity,
            "the buffer keeps its allocation"
        );
        let for_9: Vec<u64> = d.settle(9).iter().map(|p| p.uid).collect();
        assert_eq!(for_9, [3]);
    }

    #[test]
    fn rerr_limiter_window_boundary() {
        let mut d: Discovery = Discovery::new(&CFG);
        let t0 = SimTime::from_secs(5);
        assert_eq!(d.rerr_due(&CFG, vec![3, 1], |&x| x, t0), Some(vec![3, 1]));
        // Inside the window nothing is reported again; a new destination is.
        let inside = t0 + SimDuration::from_millis(999);
        assert_eq!(d.rerr_due(&CFG, vec![1, 3], |&x| x, inside), None);
        assert_eq!(d.rerr_due(&CFG, vec![1, 2], |&x| x, inside), Some(vec![2]));
        // Exactly one rate limit later the window is open again.
        let edge = t0 + SimDuration::from_secs(1);
        assert_eq!(
            d.rerr_due(&CFG, vec![(1, 7), (2, 8)], |&(x, _)| x, edge),
            Some(vec![(1, 7)])
        );
        assert_eq!(d.rerr_due(&CFG, Vec::<NodeId>::new(), |&x| x, edge), None);
        // The sweep forgets only stamps that no longer suppress anything.
        d.sweep(&CFG, edge);
        assert_eq!(d.rerr_due(&CFG, vec![3, 1, 2], |&x| x, edge), Some(vec![3]));
    }

    #[test]
    fn flood_log_answers_first_sight_and_keeps_the_first_relay_state() {
        let mut d: Discovery<u32> = Discovery::new(&CFG);
        let t = SimTime::from_secs(1);
        assert_eq!(d.originate(4, t, 0), 1);
        assert_eq!(d.originate(4, t, 0), 2);
        assert!(!d.first_sight((4, 2), t, || 9), "own floods are logged");
        assert!(d.first_sight((7, 2), t, || 1));
        assert!(!d.first_sight((7, 2), t, || 2));
        assert_eq!(d.flood((7, 2)), Some(&1));
        *d.flood_mut((7, 2)).unwrap() = 3;
        assert_eq!(d.flood((7, 2)), Some(&3));
        assert_eq!(d.flood((7, 1)), None);
    }

    #[test]
    fn sweep_runs_once_per_lifetime_and_forgets_only_old_floods() {
        let mut d: Discovery = Discovery::new(&CFG);
        let lifetime = CFG.rreq_cache_lifetime;
        let t0 = SimTime::from_secs(10);
        d.sweep(&CFG, t0);
        assert!(d.first_sight((1, 1), t0, || ()));
        assert!(d.first_sight((1, 2), t0 + SimDuration::from_secs(1), || ()));
        // Between sweeps nothing is forgotten, however old.
        d.sweep(&CFG, SimTime::from_nanos((t0 + lifetime).as_nanos() - 1));
        assert!(d.flood((1, 1)).is_some());
        // The next sweep drops exactly the floods a lifetime old.
        d.sweep(&CFG, t0 + lifetime);
        assert_eq!((d.flood((1, 1)), d.flood((1, 2))), (None, Some(&())));
        assert!(d.first_sight((1, 1), t0 + lifetime, || ()), "forgotten");
    }

    /// Inside one lifetime the sweep forgets nothing, so the flood log
    /// must answer exactly as the per-protocol sets it replaced: random
    /// `(origin, id, time)` arrivals and own floods, checked against a
    /// plain set.
    #[test]
    fn first_sight_matches_a_plain_set_within_one_lifetime() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use slr_netsim::FastHashSet;
        const OWN: NodeId = 8;
        let lifetime = CFG.rreq_cache_lifetime.as_nanos();
        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut log: Discovery<u32> = Discovery::new(&CFG);
            let mut set = FastHashSet::default();
            let mut first_relay = Vec::new();
            let start = rng.gen_range(0..lifetime);
            let mut t = start;
            for step in 0..300u32 {
                t += rng.gen_range(0..lifetime / 300);
                assert!(t - start < lifetime);
                let now = SimTime::from_nanos(t);
                log.sweep(&CFG, now);
                if rng.gen_range(0..10) == 0 {
                    let id = (OWN, log.originate(OWN, now, step));
                    assert!(set.insert(id), "request ids are fresh");
                    first_relay.push((id, step));
                    continue;
                }
                let id = (rng.gen_range(0..OWN), rng.gen_range(0..12));
                let new = log.first_sight(id, now, || step);
                assert_eq!(new, set.insert(id), "seed {seed} step {step}");
                if new {
                    first_relay.push((id, step));
                }
            }
            for (id, step) in first_relay {
                assert_eq!(log.flood(id), Some(&step), "seed {seed}");
            }
        }
    }

    #[test]
    fn forward_all_drops_what_it_cannot_send() {
        let mut fx = Vec::new();
        forward_all(vec![pkt(0, 9, 1), pkt(0, 9, 2)], &mut fx, |p| {
            if p.uid == 1 {
                Ok(vec![ProtoEffect::SendData {
                    packet: p,
                    next_hop: 4,
                }])
            } else {
                Err(p)
            }
        });
        assert!(matches!(fx[0], ProtoEffect::SendData { next_hop: 4, .. }));
        assert_eq!(drops(&fx), [(2, DataDropReason::NoRoute)]);
    }
}
