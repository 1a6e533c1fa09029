//! LDR (Labeled Distance Routing) — baseline protocol.
//!
//! A re-implementation of the protocol from Garcia-Luna-Aceves, Mosko &
//! Perkins, *A new approach to on-demand loop-free routing in ad hoc
//! networks* (PODC 2003), which the paper both cites and measures against.
//! LDR orders nodes with a pair `(sequence number, feasible distance)`
//! where the feasible distance is an **integer** hop count: a node may only
//! adopt a successor whose advertised distance is strictly below its stored
//! feasible distance (at equal sequence numbers). Because integers are not
//! dense, an out-of-order node cannot be inserted between two existing
//! labels; when local repair is impossible the request must reach the
//! destination, which issues a reply with a larger sequence number that
//! resets feasible distances along the path — this is why Fig. 7 shows a
//! small-but-nonzero average sequence number for LDR, between SRP's zero
//! and AODV's steep growth.
//!
//! Reproduction note: the original LDR decides
//! "repair impossible" with per-request state; here the originator sets the
//! reset-required flag on retry attempts after a first ring fails, which
//! triggers destination resets at a comparable rate.

use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::VecMap;

use crate::api::{
    ControlPacket, DataDropReason, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats,
    RoutingProtocol,
};
use crate::discovery::{forward_all, Attempt, Discovery, DiscoveryConfig, FloodId, Forwarded};

/// LDR route request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdrRreq {
    /// Originator.
    pub orig: NodeId,
    /// Flood identifier.
    pub rreq_id: u64,
    /// Sought destination.
    pub dst: NodeId,
    /// Requested ordering: destination sequence number.
    pub dst_seqno: u64,
    /// Requested ordering: feasible distance (hops).
    pub fd: u32,
    /// No stored ordering at the issuer.
    pub unknown: bool,
    /// Reset-required: only the destination may answer, with a larger
    /// sequence number.
    pub reset: bool,
    /// Hops traversed.
    pub hop_count: u32,
    /// Remaining flood TTL.
    pub ttl: u8,
}

/// LDR route reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdrRrep {
    /// Reply terminus (the solicitation's originator).
    pub orig: NodeId,
    /// The flood this answers.
    pub rreq_id: u64,
    /// Advertised destination.
    pub dst: NodeId,
    /// Advertised sequence number.
    pub dst_seqno: u64,
    /// Advertised distance (hops from the replier to `dst`).
    pub dist: u32,
}

/// LDR route error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdrRerr {
    /// Destinations unreachable through the sender.
    pub unreachable: Vec<NodeId>,
}

/// All LDR control packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LdrMessage {
    /// Route request.
    Rreq(LdrRreq),
    /// Route reply.
    Rrep(LdrRrep),
    /// Route error.
    Rerr(LdrRerr),
}

impl LdrMessage {
    /// Approximate wire size in bytes.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            LdrMessage::Rreq(_) => 28,
            LdrMessage::Rrep(_) => 24,
            LdrMessage::Rerr(r) => 4 + 4 * r.unreachable.len() as u32,
        }
    }

    /// Packet-type name for statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            LdrMessage::Rreq(_) => "ldr-rreq",
            LdrMessage::Rrep(_) => "ldr-rrep",
            LdrMessage::Rerr(_) => "ldr-rerr",
        }
    }
}

/// LDR runs route discovery on the defaults.
const DISCOVERY: &DiscoveryConfig = &DiscoveryConfig::DEFAULT;

/// Active-route lifetime.
const ROUTE_LIFETIME: SimDuration = SimDuration::from_secs(10);

/// Per-destination state: the `(sn, fd)` label plus the route.
#[derive(Debug, Clone)]
struct DestState {
    seqno: u64,
    /// Feasible distance: non-increasing within a sequence number.
    fd: u32,
    dist: u32,
    next_hop: Option<NodeId>,
    expires: SimTime,
}

/// Per-flood relay state: the reverse path for replies.
#[derive(Debug, Clone, Copy)]
struct RreqCache {
    last_hop: NodeId,
    replied: bool,
}

/// The LDR instance on one node.
pub struct Ldr {
    node: NodeId,
    own_seqno: u64,
    seqno_increments: u64,
    dests: VecMap<NodeId, DestState>,
    discovery: Discovery<RreqCache>,
    resets_requested: u64,
}

impl Ldr {
    /// Creates the LDR instance for `node`.
    pub fn new(node: NodeId) -> Self {
        Ldr {
            node,
            own_seqno: 1,
            seqno_increments: 0,
            dests: VecMap::new(),
            discovery: Discovery::new(DISCOVERY),
            resets_requested: 0,
        }
    }

    fn route_active(&self, t: NodeId, now: SimTime) -> bool {
        self.dests
            .get(&t)
            .map(|d| d.next_hop.is_some() && now < d.expires)
            .unwrap_or(false)
    }

    /// Feasibility: may we adopt an advertisement `(sn, dist)`?
    fn feasible(&self, t: NodeId, sn: u64, dist: u32) -> bool {
        match self.dests.get(&t) {
            Some(d) => sn > d.seqno || (sn == d.seqno && dist < d.fd),
            None => true,
        }
    }

    /// Adopt an advertisement from `from` (already checked feasible).
    fn adopt(&mut self, t: NodeId, from: NodeId, sn: u64, dist: u32, now: SimTime) {
        let entry = self.dests.entry(t).or_insert(DestState {
            seqno: sn,
            fd: u32::MAX,
            dist: u32::MAX,
            next_hop: None,
            expires: now + ROUTE_LIFETIME,
        });
        let new_dist = dist.saturating_add(1);
        if sn > entry.seqno {
            entry.seqno = sn;
            entry.fd = new_dist; // reset the feasible distance
        } else {
            entry.fd = entry.fd.min(new_dist);
        }
        entry.dist = new_dist;
        entry.next_hop = Some(from);
        entry.expires = now + ROUTE_LIFETIME;
    }

    /// Forwards `packet` along the active route; hands it back if there
    /// is none.
    fn try_forward(&mut self, mut packet: DataPacket, now: SimTime) -> Forwarded {
        if !self.route_active(packet.dst, now) {
            return Err(packet);
        }
        if packet.ttl == 0 {
            return Ok(vec![ProtoEffect::DropData {
                packet,
                reason: DataDropReason::TtlExpired,
            }]);
        }
        let d = self.dests.get_mut(&packet.dst).expect("active");
        d.expires = now + ROUTE_LIFETIME;
        let next_hop = d.next_hop.expect("active");
        packet.ttl -= 1;
        Ok(vec![ProtoEffect::SendData { packet, next_hop }])
    }

    /// Floods one ring of a discovery and arms its timeout.
    fn send_rreq(&mut self, ring: Attempt, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        let relay = RreqCache {
            last_hop: self.node,
            replied: false,
        };
        let rreq_id = self.discovery.originate(self.node, now, relay);
        // Local repair failed once: ask the destination for a reset (see
        // module docs for this approximation).
        let reset = ring.n >= 1;
        if reset {
            self.resets_requested += 1;
        }
        let (dst_seqno, fd, unknown) = match self.dests.get(&ring.dst) {
            Some(d) => (d.seqno, d.fd, false),
            None => (0, u32::MAX, true),
        };
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Ldr(LdrMessage::Rreq(LdrRreq {
                orig: self.node,
                rreq_id,
                dst: ring.dst,
                dst_seqno,
                fd,
                unknown,
                reset,
                hop_count: 0,
                ttl: ring.ttl(),
            })),
            next_hop: None,
        });
        DISCOVERY.arm(ring, fx);
    }

    fn send_rerr(&mut self, lost: Vec<NodeId>, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        if let Some(unreachable) = self.discovery.rerr_due(DISCOVERY, lost, |&d| d, now) {
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Ldr(LdrMessage::Rerr(LdrRerr { unreachable })),
                next_hop: None,
            });
        }
    }

    fn handle_rreq(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        prev: NodeId,
        rreq: LdrRreq,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        self.discovery.sweep(DISCOVERY, now);
        let key = (rreq.orig, rreq.rreq_id);
        let relay = || RreqCache {
            last_hop: prev,
            replied: false,
        };
        if rreq.orig == self.node || !self.discovery.first_sight(key, now, relay) {
            return fx;
        }

        if rreq.dst == self.node {
            // Destination: reset the ordering when asked (or when the
            // request already knows our current sequence number).
            if rreq.reset || (!rreq.unknown && rreq.dst_seqno >= self.own_seqno) {
                self.own_seqno = self.own_seqno.max(rreq.dst_seqno) + 1;
                self.seqno_increments += 1;
            }
            self.discovery.flood_mut(key).expect("present").replied = true;
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Ldr(LdrMessage::Rrep(LdrRrep {
                    orig: rreq.orig,
                    rreq_id: rreq.rreq_id,
                    dst: self.node,
                    dst_seqno: self.own_seqno,
                    dist: 0,
                })),
                next_hop: Some(prev),
            });
            return fx;
        }

        // Intermediate reply: active route that is in-order for the
        // request (the LDR analogue of SDC).
        if self.route_active(rreq.dst, now) && !rreq.reset {
            let d = self.dests.get(&rreq.dst).expect("active");
            let in_order =
                d.seqno > rreq.dst_seqno || (d.seqno == rreq.dst_seqno && d.dist < rreq.fd);
            if in_order {
                let (seqno, dist) = (d.seqno, d.dist);
                self.discovery.flood_mut(key).expect("present").replied = true;
                fx.push(ProtoEffect::SendControl {
                    packet: ControlPacket::Ldr(LdrMessage::Rrep(LdrRrep {
                        orig: rreq.orig,
                        rreq_id: rreq.rreq_id,
                        dst: rreq.dst,
                        dst_seqno: seqno,
                        dist,
                    })),
                    next_hop: Some(prev),
                });
                return fx;
            }
        }

        // Relay, strengthening the requested ordering with our own.
        if rreq.ttl <= 1 {
            return fx;
        }
        let (dst_seqno, fd, unknown) = match self.dests.get(&rreq.dst) {
            Some(d) if !rreq.unknown => {
                if d.seqno > rreq.dst_seqno {
                    (d.seqno, d.fd, false)
                } else if d.seqno == rreq.dst_seqno {
                    (rreq.dst_seqno, rreq.fd.min(d.fd), false)
                } else {
                    (rreq.dst_seqno, rreq.fd, false)
                }
            }
            Some(d) => (d.seqno, d.fd, false),
            None => (rreq.dst_seqno, rreq.fd, rreq.unknown),
        };
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Ldr(LdrMessage::Rreq(LdrRreq {
                dst_seqno,
                fd,
                unknown,
                hop_count: rreq.hop_count + 1,
                ttl: rreq.ttl - 1,
                ..rreq
            })),
            next_hop: None,
        });
        fx
    }

    fn handle_rrep(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        prev: NodeId,
        rrep: LdrRrep,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        let t = rrep.dst;
        let terminus = rrep.orig == self.node;

        if self.feasible(t, rrep.dst_seqno, rrep.dist) {
            self.adopt(t, prev, rrep.dst_seqno, rrep.dist, now);
            if terminus {
                let held = self.discovery.settle(t);
                forward_all(held, &mut fx, |p| self.try_forward(p, now));
                return fx;
            }
            // Relay along the reverse path.
            self.relay_reply((rrep.orig, rrep.rreq_id), t, &mut fx);
        } else if self.route_active(t, now) {
            // Infeasible, but we hold an in-order route: use or advertise it.
            if terminus {
                let held = self.discovery.settle(t);
                forward_all(held, &mut fx, |p| self.try_forward(p, now));
            } else {
                self.relay_reply((rrep.orig, rrep.rreq_id), t, &mut fx);
            }
        }
        fx
    }

    /// Answers `flood` once, along the reverse hop logged with it,
    /// advertising our own label for `t` (which must have a route).
    fn relay_reply(&mut self, flood: FloodId, t: NodeId, fx: &mut Vec<ProtoEffect>) {
        let Some(cache) = self.discovery.flood_mut(flood) else {
            return;
        };
        if std::mem::replace(&mut cache.replied, true) {
            return;
        }
        let d = self
            .dests
            .get(&t)
            .expect("route to the advertised destination");
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Ldr(LdrMessage::Rrep(LdrRrep {
                orig: flood.0,
                rreq_id: flood.1,
                dst: t,
                dst_seqno: d.seqno,
                dist: d.dist,
            })),
            next_hop: Some(cache.last_hop),
        });
    }

    fn handle_rerr(&mut self, now: SimTime, prev: NodeId, rerr: LdrRerr) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let mut lost = Vec::new();
        for t in rerr.unreachable {
            if let Some(d) = self.dests.get_mut(&t) {
                if d.next_hop == Some(prev) {
                    d.next_hop = None;
                    lost.push(t);
                }
            }
        }
        self.send_rerr(lost, now, &mut fx);
        fx
    }
}

impl RoutingProtocol for Ldr {
    fn name(&self) -> &'static str {
        "LDR"
    }

    fn on_start(&mut self, _ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        Vec::new()
    }

    fn on_data_from_app(&mut self, ctx: &mut ProtoCtx<'_>, packet: DataPacket) -> Vec<ProtoEffect> {
        let now = ctx.now;
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        let packet = match self.try_forward(packet, now) {
            Ok(fx) => return fx,
            Err(packet) => packet,
        };
        let mut fx = Vec::new();
        if let Some(ring) = self.discovery.hold(packet, now, &mut fx) {
            self.send_rreq(ring, now, &mut fx);
        }
        fx
    }

    fn on_data_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        let now = ctx.now;
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        let packet = match self.try_forward(packet, now) {
            Ok(fx) => return fx,
            Err(packet) => packet,
        };
        let mut fx = Vec::new();
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Ldr(LdrMessage::Rerr(LdrRerr {
                unreachable: vec![packet.dst],
            })),
            next_hop: Some(from),
        });
        if let Some(ring) = self.discovery.hold(packet, now, &mut fx) {
            self.send_rreq(ring, now, &mut fx);
        }
        fx
    }

    fn on_control_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: ControlPacket,
    ) -> Vec<ProtoEffect> {
        let ControlPacket::Ldr(msg) = packet else {
            return Vec::new();
        };
        match msg {
            LdrMessage::Rreq(r) => self.handle_rreq(ctx, from, r),
            LdrMessage::Rrep(r) => self.handle_rrep(ctx, from, r),
            LdrMessage::Rerr(r) => self.handle_rerr(ctx.now, from, r),
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_>, token: u64) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        let Some(due) = self.discovery.on_timer(DISCOVERY, token, now, &mut fx) else {
            return fx;
        };
        if self.route_active(due.dst, now) {
            self.discovery.cancel(due.dst);
        } else if let Some(ring) = self.discovery.retry(due, &mut fx) {
            self.send_rreq(ring, now, &mut fx);
        }
        fx
    }

    fn on_link_failure(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        next_hop: NodeId,
        packet: Option<DataPacket>,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        let mut lost = Vec::new();
        for (t, d) in self.dests.iter_mut() {
            if d.next_hop == Some(next_hop) {
                d.next_hop = None;
                lost.push(*t);
            }
        }
        self.send_rerr(lost, now, &mut fx);
        if let Some(ring) = packet.and_then(|p| self.discovery.hold(p, now, &mut fx)) {
            self.send_rreq(ring, now, &mut fx);
        }
        fx
    }

    fn stats(&self) -> ProtoStats {
        ProtoStats {
            own_seqno_increments: self.seqno_increments,
            max_fd_denominator: 0,
            discoveries: self.discovery.started(),
            resets_requested: self.resets_requested,
            adversarial_actions: 0,
            audit_rejections: 0,
        }
    }

    fn mem_bytes(&self) -> usize {
        self.discovery.mem_bytes() + self.dests.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{Flood, FloodId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ctx_at(rng: &mut SmallRng, secs: u64) -> ProtoCtx<'_> {
        ProtoCtx {
            now: SimTime::from_secs(secs),
            rng,
        }
    }

    fn data(src: NodeId, dst: NodeId, uid: u64) -> DataPacket {
        DataPacket {
            src,
            dst,
            uid,
            origin_time: SimTime::ZERO,
            bytes: 512,
            ttl: 64,
            source_route: None,
        }
    }

    fn rreq_of(fx: &[ProtoEffect]) -> Option<LdrRreq> {
        fx.iter().find_map(|e| match e {
            ProtoEffect::SendControl {
                packet: ControlPacket::Ldr(LdrMessage::Rreq(r)),
                ..
            } => Some(r.clone()),
            _ => None,
        })
    }

    fn rrep_of(fx: &[ProtoEffect]) -> Option<LdrRrep> {
        fx.iter().find_map(|e| match e {
            ProtoEffect::SendControl {
                packet: ControlPacket::Ldr(LdrMessage::Rrep(r)),
                ..
            } => Some(r.clone()),
            _ => None,
        })
    }

    #[test]
    fn three_node_discovery_and_fd() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut a = Ldr::new(0);
        let mut b = Ldr::new(1);
        let mut c = Ldr::new(2);

        let fx = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 2, 1));
        let rreq = rreq_of(&fx).expect("rreq");
        assert!(rreq.unknown);
        assert!(!rreq.reset, "first attempt does not demand a reset");

        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Ldr(LdrMessage::Rreq(rreq)),
        );
        let relayed = rreq_of(&fx).expect("relay");

        let fx = c.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Ldr(LdrMessage::Rreq(relayed)),
        );
        let rrep = rrep_of(&fx).expect("destination replies");
        assert_eq!(rrep.dist, 0);

        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            2,
            ControlPacket::Ldr(LdrMessage::Rrep(rrep)),
        );
        let rrep2 = rrep_of(&fx).expect("relayed reply");
        assert_eq!(rrep2.dist, 1);

        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Ldr(LdrMessage::Rrep(rrep2)),
        );
        assert!(a.route_active(2, SimTime::from_secs(1)));
        let d = a.dests.get(&2).unwrap();
        assert_eq!(d.dist, 2);
        assert_eq!(d.fd, 2, "feasible distance tracks adopted distance");
        // Destination never incremented: the request was unknown.
        assert_eq!(c.stats().own_seqno_increments, 0);
    }

    #[test]
    fn feasibility_blocks_longer_routes_at_same_seqno() {
        let mut ldr = Ldr::new(0);
        ldr.adopt(9, 1, 5, 2, SimTime::from_secs(1)); // fd = 3
        assert!(ldr.feasible(9, 5, 2));
        assert!(
            !ldr.feasible(9, 5, 3),
            "equal-or-longer distance is out of order"
        );
        assert!(ldr.feasible(9, 6, 100), "fresher seqno is always feasible");
    }

    #[test]
    fn fd_resets_on_new_seqno() {
        let mut ldr = Ldr::new(0);
        ldr.adopt(9, 1, 5, 2, SimTime::from_secs(1));
        assert_eq!(ldr.dests.get(&9).unwrap().fd, 3);
        ldr.adopt(9, 2, 6, 9, SimTime::from_secs(2));
        let d = ldr.dests.get(&9).unwrap();
        assert_eq!(d.seqno, 6);
        assert_eq!(d.fd, 10, "new seqno resets the feasible distance");
    }

    #[test]
    fn retry_sets_reset_and_destination_bumps() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut a = Ldr::new(0);
        let _ = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 9, 1));
        let fx = a.on_timer(&mut ctx_at(&mut rng, 2), Attempt { dst: 9, n: 0 }.token());
        let rreq = rreq_of(&fx).expect("second ring");
        assert!(rreq.reset, "retries demand a destination reset");
        assert_eq!(a.stats().resets_requested, 1);

        let mut t = Ldr::new(9);
        let before = t.own_seqno;
        let fx = t.on_control_received(
            &mut ctx_at(&mut rng, 2),
            5,
            ControlPacket::Ldr(LdrMessage::Rreq(rreq)),
        );
        let rrep = rrep_of(&fx).expect("destination replies");
        assert!(rrep.dst_seqno > before);
        assert_eq!(t.stats().own_seqno_increments, 1);
    }

    #[test]
    fn reset_requests_skip_intermediate_replies() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut b = Ldr::new(1);
        b.adopt(9, 4, 5, 1, SimTime::from_secs(1));
        let rreq = LdrRreq {
            orig: 0,
            rreq_id: 1,
            dst: 9,
            dst_seqno: 5,
            fd: 10,
            unknown: false,
            reset: true,
            hop_count: 0,
            ttl: 5,
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Ldr(LdrMessage::Rreq(rreq.clone())),
        );
        assert!(
            rrep_of(&fx).is_none(),
            "reset requests go to the destination"
        );
        assert!(rreq_of(&fx).is_some());

        // Without the reset bit the same node replies.
        let mut b2 = Ldr::new(1);
        b2.adopt(9, 4, 5, 1, SimTime::from_secs(1));
        let fx = b2.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Ldr(LdrMessage::Rreq(LdrRreq {
                reset: false,
                rreq_id: 2,
                ..rreq
            })),
        );
        assert!(rrep_of(&fx).is_some());
    }

    /// A node that hears one flood a second for three flood lifetimes
    /// logs only the last lifetime's: the sweep forgets the rest.
    #[test]
    fn flood_log_holds_one_lifetime() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut b = Ldr::new(1);
        let lifetime = 120;
        assert_eq!(
            DISCOVERY.rreq_cache_lifetime,
            SimDuration::from_secs(lifetime)
        );
        for id in 0..=3 * lifetime {
            let rreq = LdrRreq {
                orig: 7,
                rreq_id: id,
                dst: 9,
                dst_seqno: 0,
                fd: u32::MAX,
                unknown: true,
                reset: false,
                hop_count: 0,
                ttl: 1,
            };
            let _ = b.on_control_received(
                &mut ctx_at(&mut rng, id),
                7,
                ControlPacket::Ldr(LdrMessage::Rreq(rreq)),
            );
        }
        let logged: Vec<u64> = (0..=3 * lifetime)
            .filter(|&id| b.discovery.flood((7, id)).is_some())
            .collect();
        assert_eq!(logged, Vec::from_iter(2 * lifetime + 1..=3 * lifetime));
        let entry = std::mem::size_of::<(FloodId, Flood<RreqCache>)>();
        assert!(b.mem_bytes() >= b.dests.mem_bytes() + logged.len() * entry);
    }

    #[test]
    fn link_failure_and_rerr() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut a = Ldr::new(0);
        a.adopt(9, 1, 5, 2, SimTime::from_secs(1));
        let fx = a.on_link_failure(&mut ctx_at(&mut rng, 2), 1, Some(data(3, 9, 7)));
        assert!(!a.route_active(9, SimTime::from_secs(2)));
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::SendControl {
                packet: ControlPacket::Ldr(LdrMessage::Rerr(_)),
                ..
            }
        )));
        // The packet is held and a discovery started.
        assert!(rreq_of(&fx).is_some());
        assert!(a.discovery.buffer().has_for(9));
    }

    #[test]
    fn link_failure_reports_destinations_in_ascending_order() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut a = Ldr::new(0);
        for t in [17, 3, 42, 9, 25, 1, 30, 12] {
            a.adopt(t, 1, 5, 2, SimTime::from_secs(1));
        }
        let fx = a.on_link_failure(&mut ctx_at(&mut rng, 2), 1, None);
        let rerr = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Ldr(LdrMessage::Rerr(r)),
                    ..
                } => Some(r.clone()),
                _ => None,
            })
            .expect("rerr broadcast");
        assert_eq!(rerr.unreachable, [1, 3, 9, 12, 17, 25, 30, 42]);
    }
}
