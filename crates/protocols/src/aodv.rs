//! AODV (Ad hoc On-demand Distance Vector) — baseline protocol.
//!
//! A faithful-to-draft simplification of draft-ietf-manet-aodv-10, the
//! version the paper compares against: per-destination sequence numbers and
//! hop counts, RREQ flooding with expanding ring, RREP along the reverse
//! path, RERR on link failures, and local repair. AODV's only loop-freedom
//! mechanism is the sequence number — a node that loses a route increments
//! the stored destination sequence number, and an originator increments its
//! *own* sequence number before every discovery, which is why Fig. 7 shows
//! AODV's average node sequence number growing with mobility.

use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::VecMap;

use crate::api::{
    ControlPacket, DataDropReason, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats,
    RoutingProtocol,
};
use crate::discovery::{forward_all, Attempt, Discovery, DiscoveryConfig, Forwarded};

/// AODV route request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AodvRreq {
    /// Originator.
    pub orig: NodeId,
    /// Originator's sequence number.
    pub orig_seqno: u64,
    /// Flood identifier.
    pub rreq_id: u64,
    /// Sought destination.
    pub dst: NodeId,
    /// Last known destination sequence number.
    pub dst_seqno: u64,
    /// U flag: no sequence number known.
    pub unknown: bool,
    /// Hops traversed so far.
    pub hop_count: u32,
    /// Remaining flood TTL.
    pub ttl: u8,
}

/// AODV route reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AodvRrep {
    /// The node the reply travels to.
    pub orig: NodeId,
    /// The destination the route leads to.
    pub dst: NodeId,
    /// Destination sequence number.
    pub dst_seqno: u64,
    /// Hops from the replier to the destination.
    pub hop_count: u32,
}

/// AODV route error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AodvRerr {
    /// Unreachable destinations with their invalidated sequence numbers.
    pub unreachable: Vec<(NodeId, u64)>,
}

/// All AODV control packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AodvMessage {
    /// Route request.
    Rreq(AodvRreq),
    /// Route reply.
    Rrep(AodvRrep),
    /// Route error.
    Rerr(AodvRerr),
}

impl AodvMessage {
    /// Approximate wire size in bytes.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            AodvMessage::Rreq(_) => 24,
            AodvMessage::Rrep(_) => 20,
            AodvMessage::Rerr(r) => 4 + 8 * r.unreachable.len() as u32,
        }
    }

    /// Packet-type name for statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            AodvMessage::Rreq(_) => "aodv-rreq",
            AodvMessage::Rrep(_) => "aodv-rrep",
            AodvMessage::Rerr(_) => "aodv-rerr",
        }
    }
}

/// AODV runs route discovery on the defaults.
const DISCOVERY: &DiscoveryConfig = &DiscoveryConfig::DEFAULT;

/// Active-route timeout (refreshed on use).
const ROUTE_LIFETIME: SimDuration = SimDuration::from_secs(10);

#[derive(Debug, Clone)]
struct Route {
    next_hop: NodeId,
    hops: u32,
    seqno: u64,
    valid_seqno: bool,
    expires: SimTime,
    valid: bool,
}

/// The AODV instance on one node.
pub struct Aodv {
    node: NodeId,
    own_seqno: u64,
    seqno_increments: u64,
    routes: VecMap<NodeId, Route>,
    discovery: Discovery,
}

impl Aodv {
    /// Creates the AODV instance for `node`.
    pub fn new(node: NodeId) -> Self {
        Aodv {
            node,
            own_seqno: 0,
            seqno_increments: 0,
            routes: VecMap::new(),
            discovery: Discovery::new(DISCOVERY),
        }
    }

    fn route_active(&self, t: NodeId, now: SimTime) -> bool {
        self.routes
            .get(&t)
            .map(|r| r.valid && now < r.expires)
            .unwrap_or(false)
    }

    /// Install or update a route if the new information is fresher/better.
    fn update_route(
        &mut self,
        t: NodeId,
        next_hop: NodeId,
        hops: u32,
        seqno: u64,
        valid_seqno: bool,
        now: SimTime,
    ) -> bool {
        match self.routes.get_mut(&t) {
            Some(r) => {
                let better = !r.valid
                    || !r.valid_seqno
                    || seqno > r.seqno
                    || (seqno == r.seqno && hops < r.hops);
                if better && valid_seqno || (!r.valid && !valid_seqno) {
                    r.next_hop = next_hop;
                    r.hops = hops;
                    if valid_seqno {
                        r.seqno = seqno;
                        r.valid_seqno = true;
                    }
                    r.expires = now + ROUTE_LIFETIME;
                    r.valid = true;
                    true
                } else {
                    // Refresh lifetime of an equivalent route.
                    if r.valid && r.next_hop == next_hop {
                        r.expires = now + ROUTE_LIFETIME;
                    }
                    false
                }
            }
            None => {
                self.routes.insert(
                    t,
                    Route {
                        next_hop,
                        hops,
                        seqno,
                        valid_seqno,
                        expires: now + ROUTE_LIFETIME,
                        valid: true,
                    },
                );
                true
            }
        }
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
        let r = self.routes.get_mut(&packet.dst).expect("active");
        r.expires = now + ROUTE_LIFETIME;
        let next_hop = r.next_hop;
        packet.ttl -= 1;
        Ok(vec![ProtoEffect::SendData { packet, next_hop }])
    }

    /// Floods one ring of a discovery and arms its timeout.
    fn send_rreq(&mut self, ring: Attempt, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        // RFC 3561 §6.1: increment own sequence number before originating
        // a route discovery. This is the Fig. 7 growth driver.
        self.own_seqno += 1;
        self.seqno_increments += 1;
        let rreq_id = self.discovery.originate(self.node, now, ());
        let (dst_seqno, unknown) = match self.routes.get(&ring.dst) {
            Some(r) if r.valid_seqno => (r.seqno, false),
            _ => (0, true),
        };
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Aodv(AodvMessage::Rreq(AodvRreq {
                orig: self.node,
                orig_seqno: self.own_seqno,
                rreq_id,
                dst: ring.dst,
                dst_seqno,
                unknown,
                hop_count: 0,
                ttl: ring.ttl(),
            })),
            next_hop: None,
        });
        DISCOVERY.arm(ring, fx);
    }

    fn send_rerr(&mut self, lost: Vec<(NodeId, u64)>, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        if let Some(unreachable) = self.discovery.rerr_due(DISCOVERY, lost, |&(d, _)| d, now) {
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Aodv(AodvMessage::Rerr(AodvRerr { unreachable })),
                next_hop: None,
            });
        }
    }

    fn handle_rreq(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        prev: NodeId,
        rreq: AodvRreq,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        self.discovery.sweep(DISCOVERY, now);
        let flood = (rreq.orig, rreq.rreq_id);
        if rreq.orig == self.node || !self.discovery.first_sight(flood, now, || ()) {
            return fx;
        }

        // Reverse route to the originator.
        self.update_route(
            rreq.orig,
            prev,
            rreq.hop_count + 1,
            rreq.orig_seqno,
            true,
            now,
        );

        if rreq.dst == self.node {
            // Destination reply: freshen own seqno to at least the request.
            if !rreq.unknown && rreq.dst_seqno >= self.own_seqno {
                self.own_seqno = rreq.dst_seqno + 1;
                self.seqno_increments += 1;
            }
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Aodv(AodvMessage::Rrep(AodvRrep {
                    orig: rreq.orig,
                    dst: self.node,
                    dst_seqno: self.own_seqno,
                    hop_count: 0,
                })),
                next_hop: Some(prev),
            });
            return fx;
        }

        // Intermediate reply with a fresh-enough route.
        if self.route_active(rreq.dst, now) {
            let r = self.routes.get(&rreq.dst).expect("active");
            if r.valid_seqno && (rreq.unknown || r.seqno >= rreq.dst_seqno) {
                let (seqno, hops) = (r.seqno, r.hops);
                fx.push(ProtoEffect::SendControl {
                    packet: ControlPacket::Aodv(AodvMessage::Rrep(AodvRrep {
                        orig: rreq.orig,
                        dst: rreq.dst,
                        dst_seqno: seqno,
                        hop_count: hops,
                    })),
                    next_hop: Some(prev),
                });
                return fx;
            }
        }

        // Relay.
        if rreq.ttl <= 1 {
            return fx;
        }
        let dst_seqno = match self.routes.get(&rreq.dst) {
            Some(r) if r.valid_seqno => r.seqno.max(rreq.dst_seqno),
            _ => rreq.dst_seqno,
        };
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Aodv(AodvMessage::Rreq(AodvRreq {
                hop_count: rreq.hop_count + 1,
                ttl: rreq.ttl - 1,
                dst_seqno,
                unknown: rreq.unknown && dst_seqno == 0,
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
        rrep: AodvRrep,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        // Forward route to the destination.
        self.update_route(
            rrep.dst,
            prev,
            rrep.hop_count + 1,
            rrep.dst_seqno,
            true,
            now,
        );

        if rrep.orig == self.node {
            let held = self.discovery.settle(rrep.dst);
            forward_all(held, &mut fx, |p| self.try_forward(p, now));
            return fx;
        }
        // Relay toward the originator along the reverse route.
        if self.route_active(rrep.orig, now) {
            let next = self.routes.get(&rrep.orig).expect("active").next_hop;
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Aodv(AodvMessage::Rrep(AodvRrep {
                    hop_count: rrep.hop_count + 1,
                    ..rrep
                })),
                next_hop: Some(next),
            });
        }
        fx
    }

    fn handle_rerr(&mut self, now: SimTime, prev: NodeId, rerr: AodvRerr) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let mut lost = Vec::new();
        for (t, seqno) in rerr.unreachable {
            if let Some(r) = self.routes.get_mut(&t) {
                if r.valid && r.next_hop == prev {
                    r.valid = false;
                    r.seqno = r.seqno.max(seqno);
                    lost.push((t, r.seqno));
                }
            }
        }
        self.send_rerr(lost, now, &mut fx);
        fx
    }
}

impl RoutingProtocol for Aodv {
    fn name(&self) -> &'static str {
        "AODV"
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
        // No route: RERR to the previous hop, then attempt local repair.
        let mut fx = Vec::new();
        let seqno = self
            .routes
            .get(&packet.dst)
            .map(|r| r.seqno + 1)
            .unwrap_or(1);
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Aodv(AodvMessage::Rerr(AodvRerr {
                unreachable: vec![(packet.dst, seqno)],
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
        let ControlPacket::Aodv(msg) = packet else {
            return Vec::new();
        };
        match msg {
            AodvMessage::Rreq(r) => self.handle_rreq(ctx, from, r),
            AodvMessage::Rrep(r) => self.handle_rrep(ctx, from, r),
            AodvMessage::Rerr(r) => self.handle_rerr(ctx.now, from, r),
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
        for (t, r) in self.routes.iter_mut() {
            if r.valid && r.next_hop == next_hop {
                r.valid = false;
                r.seqno += 1; // invalidation bumps the stored seqno
                lost.push((*t, r.seqno));
            }
        }
        self.send_rerr(lost, now, &mut fx);
        // Local repair: hold the packet and rediscover from here.
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
            resets_requested: 0,
            adversarial_actions: 0,
            audit_rejections: 0,
        }
    }

    fn mem_bytes(&self) -> usize {
        self.discovery.mem_bytes() + self.routes.mem_bytes()
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

    fn rreq_of(fx: &[ProtoEffect]) -> Option<AodvRreq> {
        fx.iter().find_map(|e| match e {
            ProtoEffect::SendControl {
                packet: ControlPacket::Aodv(AodvMessage::Rreq(r)),
                ..
            } => Some(r.clone()),
            _ => None,
        })
    }

    fn rrep_of(fx: &[ProtoEffect]) -> Option<(AodvRrep, Option<NodeId>)> {
        fx.iter().find_map(|e| match e {
            ProtoEffect::SendControl {
                packet: ControlPacket::Aodv(AodvMessage::Rrep(r)),
                next_hop,
            } => Some((r.clone(), *next_hop)),
            _ => None,
        })
    }

    #[test]
    fn three_node_discovery() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut a = Aodv::new(0);
        let mut b = Aodv::new(1);
        let mut c = Aodv::new(2);

        let fx = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 2, 1));
        let rreq = rreq_of(&fx).expect("rreq");
        assert_eq!(rreq.orig_seqno, 1, "own seqno incremented before RREQ");

        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Aodv(AodvMessage::Rreq(rreq)),
        );
        let relayed = rreq_of(&fx).expect("relay");
        assert_eq!(relayed.hop_count, 1);
        assert!(
            b.route_active(0, SimTime::from_secs(1)),
            "reverse route to orig"
        );

        let fx = c.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Aodv(AodvMessage::Rreq(relayed)),
        );
        let (rrep, nh) = rrep_of(&fx).expect("destination replies");
        assert_eq!(nh, Some(1));
        assert_eq!(rrep.hop_count, 0);

        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            2,
            ControlPacket::Aodv(AodvMessage::Rrep(rrep)),
        );
        let (rrep2, nh2) = rrep_of(&fx).expect("relayed reply");
        assert_eq!(nh2, Some(0));
        assert_eq!(rrep2.hop_count, 1);

        let fx = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Aodv(AodvMessage::Rrep(rrep2)),
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, ProtoEffect::SendData { next_hop: 1, .. })));
        assert!(a.route_active(2, SimTime::from_secs(1)));
    }

    #[test]
    fn seqno_grows_with_each_discovery() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut a = Aodv::new(0);
        let _ = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 5, 1));
        // Ring retries each bump the sequence number again.
        let _ = a.on_timer(&mut ctx_at(&mut rng, 2), Attempt { dst: 5, n: 0 }.token());
        let _ = a.on_timer(&mut ctx_at(&mut rng, 4), Attempt { dst: 5, n: 1 }.token());
        assert_eq!(a.stats().own_seqno_increments, 3);
    }

    #[test]
    fn intermediate_node_replies_with_fresh_route() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut b = Aodv::new(1);
        b.update_route(9, 4, 2, 7, true, SimTime::from_secs(1));
        let rreq = AodvRreq {
            orig: 0,
            orig_seqno: 1,
            rreq_id: 1,
            dst: 9,
            dst_seqno: 5,
            unknown: false,
            hop_count: 0,
            ttl: 5,
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Aodv(AodvMessage::Rreq(rreq.clone())),
        );
        let (rrep, _) = rrep_of(&fx).expect("fresh route reply");
        assert_eq!(rrep.dst_seqno, 7);
        assert_eq!(rrep.hop_count, 2);

        // A stale route (seqno below request) only relays.
        let mut c = Aodv::new(2);
        c.update_route(9, 4, 2, 3, true, SimTime::from_secs(1));
        let fx = c.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Aodv(AodvMessage::Rreq(rreq)),
        );
        assert!(rrep_of(&fx).is_none());
        let relayed = rreq_of(&fx).expect("relayed");
        assert_eq!(relayed.dst_seqno, 5, "request keeps the larger seqno");
    }

    #[test]
    fn link_failure_invalidates_and_rerrs() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut a = Aodv::new(0);
        a.update_route(9, 1, 2, 7, true, SimTime::from_secs(1));
        a.update_route(8, 1, 3, 2, true, SimTime::from_secs(1));
        a.update_route(7, 2, 1, 4, true, SimTime::from_secs(1));
        let fx = a.on_link_failure(&mut ctx_at(&mut rng, 2), 1, None);
        let rerr = fx.iter().find_map(|e| match e {
            ProtoEffect::SendControl {
                packet: ControlPacket::Aodv(AodvMessage::Rerr(r)),
                ..
            } => Some(r.clone()),
            _ => None,
        });
        let rerr = rerr.expect("rerr broadcast");
        assert_eq!(rerr.unreachable.len(), 2);
        assert!(!a.route_active(9, SimTime::from_secs(2)));
        assert!(
            a.route_active(7, SimTime::from_secs(2)),
            "route via node 2 survives"
        );
    }

    #[test]
    fn rerr_propagates_upstream() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut a = Aodv::new(0);
        a.update_route(9, 1, 2, 7, true, SimTime::from_secs(1));
        let rerr = AodvRerr {
            unreachable: vec![(9, 8)],
        };
        let fx = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Aodv(AodvMessage::Rerr(rerr)),
        );
        assert!(!a.route_active(9, SimTime::from_secs(1)));
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::SendControl {
                packet: ControlPacket::Aodv(AodvMessage::Rerr(_)),
                ..
            }
        )));
        // A RERR from a node that is not our next hop changes nothing.
        let mut b = Aodv::new(1);
        b.update_route(9, 2, 2, 7, true, SimTime::from_secs(1));
        let rerr = AodvRerr {
            unreachable: vec![(9, 8)],
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            5,
            ControlPacket::Aodv(AodvMessage::Rerr(rerr)),
        );
        assert!(fx.is_empty());
        assert!(b.route_active(9, SimTime::from_secs(1)));
    }

    #[test]
    fn declined_reply_drops_the_held_packets_instead_of_losing_them() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut a = Aodv::new(0);
        // A route to 9 with seqno 7 via 1 that has expired but stays valid.
        a.update_route(9, 1, 2, 7, true, SimTime::from_secs(1));
        for uid in [1, 2] {
            let _ = a.on_data_from_app(&mut ctx_at(&mut rng, 12), data(0, 9, uid));
        }
        // A reply via another neighbor with the same seqno and no fewer
        // hops: `update_route` declines it, so the route stays inactive.
        let fx = a.on_control_received(
            &mut ctx_at(&mut rng, 12),
            2,
            ControlPacket::Aodv(AodvMessage::Rrep(AodvRrep {
                orig: 0,
                dst: 9,
                dst_seqno: 7,
                hop_count: 2,
            })),
        );
        let dropped: Vec<(u64, DataDropReason)> = fx
            .iter()
            .filter_map(|e| match e {
                ProtoEffect::DropData { packet, reason } => Some((packet.uid, *reason)),
                _ => None,
            })
            .collect();
        assert_eq!(
            dropped,
            [(1, DataDropReason::NoRoute), (2, DataDropReason::NoRoute)],
            "every packet the flush took must leave a drop record: {fx:?}"
        );
    }

    #[test]
    fn link_failure_reports_destinations_in_ascending_order() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut a = Aodv::new(0);
        for t in [17, 3, 42, 9, 25, 1, 30, 12] {
            a.update_route(t, 1, 2, 5, true, SimTime::from_secs(1));
        }
        let fx = a.on_link_failure(&mut ctx_at(&mut rng, 2), 1, None);
        let dests: Vec<NodeId> = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Aodv(AodvMessage::Rerr(r)),
                    ..
                } => Some(r.unreachable.iter().map(|(t, _)| *t).collect()),
                _ => None,
            })
            .expect("rerr broadcast");
        assert_eq!(dests, [1, 3, 9, 12, 17, 25, 30, 42]);
    }

    #[test]
    fn retry_cancels_once_a_route_is_active_and_gives_up_after_the_last_ring() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut a = Aodv::new(0);
        let _ = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 5, 1));
        // A route appears before the first ring times out: the timer ends
        // the discovery without flushing or flooding.
        a.update_route(5, 3, 1, 4, true, SimTime::from_secs(2));
        let fx = a.on_timer(&mut ctx_at(&mut rng, 2), Attempt { dst: 5, n: 0 }.token());
        assert!(fx.is_empty(), "{fx:?}");
        assert!(a.discovery.is_idle());

        let mut b = Aodv::new(0);
        let _ = b.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 5, 1));
        for n in 0..2 {
            let fx = b.on_timer(
                &mut ctx_at(&mut rng, 2 + n),
                Attempt {
                    dst: 5,
                    n: n as u32,
                }
                .token(),
            );
            assert_eq!(rreq_of(&fx).expect("next ring").ttl, [16, 64][n as usize]);
        }
        let fx = b.on_timer(&mut ctx_at(&mut rng, 4), Attempt { dst: 5, n: 2 }.token());
        assert!(matches!(
            fx[..],
            [ProtoEffect::DropData {
                reason: DataDropReason::NoRoute,
                ..
            }]
        ));
        assert_eq!(b.stats().discoveries, 4);
    }

    /// A node that hears one flood a second for three flood lifetimes
    /// logs only the last lifetime's: the sweep forgets the rest.
    #[test]
    fn flood_log_holds_one_lifetime() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut b = Aodv::new(1);
        let lifetime = 120;
        assert_eq!(
            DISCOVERY.rreq_cache_lifetime,
            SimDuration::from_secs(lifetime)
        );
        for id in 0..=3 * lifetime {
            let rreq = AodvRreq {
                orig: 7,
                orig_seqno: 1,
                rreq_id: id,
                dst: 9,
                dst_seqno: 0,
                unknown: true,
                hop_count: 0,
                ttl: 1,
            };
            let _ = b.on_control_received(
                &mut ctx_at(&mut rng, id),
                7,
                ControlPacket::Aodv(AodvMessage::Rreq(rreq)),
            );
        }
        let logged: Vec<u64> = (0..=3 * lifetime)
            .filter(|&id| b.discovery.flood((7, id)).is_some())
            .collect();
        assert_eq!(logged, Vec::from_iter(2 * lifetime + 1..=3 * lifetime));
        let entry = std::mem::size_of::<(FloodId, Flood<()>)>();
        assert!(b.mem_bytes() >= b.routes.mem_bytes() + logged.len() * entry);
    }

    #[test]
    fn routes_expire_without_use() {
        let mut a = Aodv::new(0);
        a.update_route(9, 1, 2, 7, true, SimTime::from_secs(1));
        assert!(a.route_active(9, SimTime::from_secs(5)));
        assert!(!a.route_active(9, SimTime::from_secs(12)));
    }
}
