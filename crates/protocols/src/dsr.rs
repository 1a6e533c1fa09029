//! DSR (Dynamic Source Routing) — baseline protocol.
//!
//! Implements the draft-ietf-manet-dsr-07 mechanisms the paper simulates:
//! route discovery with accumulated routes, replies from the target or from
//! intermediate route caches, source routes carried in data packets, a path
//! route cache, packet salvaging on link failure, and route errors that
//! scrub broken links from caches. Packet paths are inherently loop-free.
//!
//! DSR's well-known failure mode at high load — stale cached routes being
//! handed out faster than errors can scrub them — is what drives its
//! collapse in Figs. 3–4 of the paper; the cache here deliberately keeps
//! the draft's long lifetimes so that behaviour is reproduced rather than
//! patched.

use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::FastHashMap;

use crate::api::{
    ControlPacket, DataDropReason, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats,
    RoutingProtocol, SourceRoute,
};
use crate::discovery::{Attempt, Discovery, DiscoveryConfig};

/// DSR route request with its accumulated route record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsrRreq {
    /// Originator.
    pub orig: NodeId,
    /// Flood identifier.
    pub rreq_id: u64,
    /// Sought node.
    pub target: NodeId,
    /// Nodes traversed so far (starts as `[orig]`).
    pub route: Vec<NodeId>,
    /// Remaining flood TTL.
    pub ttl: u8,
}

/// DSR route reply carrying a complete path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsrRrep {
    /// The discovery originator the reply travels to.
    pub orig: NodeId,
    /// The flood this answers.
    pub rreq_id: u64,
    /// Full path `orig … target`.
    pub route: Vec<NodeId>,
}

/// DSR route error: a broken link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsrRerr {
    /// Upstream endpoint of the broken link (the detector).
    pub from: NodeId,
    /// The unreachable downstream endpoint.
    pub to: NodeId,
    /// The node the error is reported to (the packet's source).
    pub orig: NodeId,
}

/// All DSR control packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsrMessage {
    /// Route request.
    Rreq(DsrRreq),
    /// Route reply.
    Rrep(DsrRrep),
    /// Route error.
    Rerr(DsrRerr),
}

impl DsrMessage {
    /// Approximate wire size in bytes (4 bytes per recorded hop).
    pub fn wire_bytes(&self) -> u32 {
        match self {
            DsrMessage::Rreq(r) => 16 + 4 * r.route.len() as u32,
            DsrMessage::Rrep(r) => 12 + 4 * r.route.len() as u32,
            DsrMessage::Rerr(_) => 16,
        }
    }

    /// Packet-type name for statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            DsrMessage::Rreq(_) => "dsr-rreq",
            DsrMessage::Rrep(_) => "dsr-rrep",
            DsrMessage::Rerr(_) => "dsr-rerr",
        }
    }
}

/// DSR tunables.
#[derive(Debug, Clone, Copy)]
pub struct DsrConfig {
    /// Maximum cached paths.
    pub cache_capacity: usize,
    /// Cached-path lifetime (deliberately long; see module docs).
    pub cache_lifetime: SimDuration,
    /// Salvage attempts allowed per packet.
    pub salvage_limit: u8,
}

impl Default for DsrConfig {
    fn default() -> Self {
        DsrConfig {
            cache_capacity: 64,
            cache_lifetime: SimDuration::from_secs(300),
            salvage_limit: 15,
        }
    }
}

/// DSR runs route discovery on the defaults.
const DISCOVERY: &DiscoveryConfig = &DiscoveryConfig::DEFAULT;

#[derive(Debug, Clone)]
struct CachedPath {
    path: Vec<NodeId>,
    expires: SimTime,
}

/// The DSR instance on one node.
pub struct Dsr {
    node: NodeId,
    cfg: DsrConfig,
    cache: Vec<CachedPath>,
    next_rreq_id: u64,
    rreq_seen: FastHashMap<(NodeId, u64), SimTime>,
    discovery: Discovery,
    salvage_counts: FastHashMap<u64, u8>,
}

impl Dsr {
    /// Creates the DSR instance for `node`.
    pub fn new(node: NodeId, cfg: DsrConfig) -> Self {
        Dsr {
            node,
            cfg,
            cache: Vec::new(),
            next_rreq_id: 0,
            rreq_seen: FastHashMap::default(),
            discovery: Discovery::new(DISCOVERY),
            salvage_counts: FastHashMap::default(),
        }
    }

    /// Caches a path (any direction of use is allowed since links are
    /// assumed symmetric). Evicts the oldest entry when full.
    fn cache_path(&mut self, path: &[NodeId], now: SimTime) {
        if path.len() < 2 {
            return;
        }
        // Reject paths with duplicate nodes.
        for (i, n) in path.iter().enumerate() {
            if path[i + 1..].contains(n) {
                return;
            }
        }
        let expires = now + self.cfg.cache_lifetime;
        if let Some(e) = self.cache.iter_mut().find(|c| c.path == path) {
            e.expires = expires;
            return;
        }
        if self.cache.len() >= self.cfg.cache_capacity {
            // Evict the entry expiring soonest.
            if let Some((idx, _)) = self.cache.iter().enumerate().min_by_key(|(_, c)| c.expires) {
                self.cache.remove(idx);
            }
        }
        self.cache.push(CachedPath {
            path: path.to_vec(),
            expires,
        });
    }

    /// Finds the shortest cached sub-path from this node to `dst`.
    fn find_route(&mut self, dst: NodeId, now: SimTime) -> Option<Vec<NodeId>> {
        self.cache.retain(|c| c.expires > now);
        let mut best: Option<Vec<NodeId>> = None;
        for c in &self.cache {
            // Forward direction.
            if let Some(sub) = subpath(&c.path, self.node, dst) {
                if best.as_ref().map(|b| sub.len() < b.len()).unwrap_or(true) {
                    best = Some(sub);
                }
            }
            // Reverse direction (symmetric links).
            let rev: Vec<NodeId> = c.path.iter().rev().copied().collect();
            if let Some(sub) = subpath(&rev, self.node, dst) {
                if best.as_ref().map(|b| sub.len() < b.len()).unwrap_or(true) {
                    best = Some(sub);
                }
            }
        }
        best
    }

    /// Removes every cached path that uses the directed link `a → b` (in
    /// either direction, since links are symmetric). Paths are truncated
    /// before the broken link rather than discarded.
    fn scrub_link(&mut self, a: NodeId, b: NodeId) {
        let mut updated = Vec::new();
        for c in self.cache.drain(..) {
            let mut cut = c.path.len();
            for i in 0..c.path.len() - 1 {
                let (x, y) = (c.path[i], c.path[i + 1]);
                if (x == a && y == b) || (x == b && y == a) {
                    cut = i + 1;
                    break;
                }
            }
            if cut >= 2 {
                updated.push(CachedPath {
                    path: c.path[..cut].to_vec(),
                    expires: c.expires,
                });
            }
        }
        self.cache = updated;
    }

    fn send_with_route(&mut self, mut packet: DataPacket, route: Vec<NodeId>) -> Vec<ProtoEffect> {
        let sr = SourceRoute::new(route);
        let next = sr.next_hop().expect("route has at least two hops");
        packet.source_route = Some(sr);
        if packet.ttl == 0 {
            return vec![ProtoEffect::DropData {
                packet,
                reason: DataDropReason::TtlExpired,
            }];
        }
        packet.ttl -= 1;
        vec![ProtoEffect::SendData {
            packet,
            next_hop: next,
        }]
    }

    /// Floods one ring of a discovery and arms its timeout.
    fn send_rreq(&mut self, ring: Attempt, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        self.next_rreq_id += 1;
        self.rreq_seen.insert((self.node, self.next_rreq_id), now);
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Dsr(DsrMessage::Rreq(DsrRreq {
                orig: self.node,
                rreq_id: self.next_rreq_id,
                target: ring.dst,
                route: vec![self.node],
                ttl: ring.ttl(),
            })),
            next_hop: None,
        });
        DISCOVERY.arm(ring, fx);
    }

    /// Ends the discovery for `dst`, sending the packets held for it if
    /// the cache now has a route; without one they stay held.
    fn flush_buffer(&mut self, dst: NodeId, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        if self.discovery.buffer().has_for(dst) {
            if let Some(route) = self.find_route(dst, now) {
                for p in self.discovery.settle(dst) {
                    fx.extend(self.send_with_route(p, route.clone()));
                }
            }
        }
        self.discovery.cancel(dst);
    }

    fn handle_rreq(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        _prev: NodeId,
        rreq: DsrRreq,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        if rreq.orig == self.node || rreq.route.contains(&self.node) {
            return fx;
        }
        let key = (rreq.orig, rreq.rreq_id);
        if self.rreq_seen.contains_key(&key) {
            return fx;
        }
        self.rreq_seen.insert(key, now);

        // The accumulated record is a route back to the originator.
        let mut here = rreq.route.clone();
        here.push(self.node);
        let back: Vec<NodeId> = here.iter().rev().copied().collect();
        self.cache_path(&back, now);

        if rreq.target == self.node {
            // Reply with the full recorded route.
            let next = *here
                .get(here.len() - 2)
                .expect("record has at least the originator");
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Dsr(DsrMessage::Rrep(DsrRrep {
                    orig: rreq.orig,
                    rreq_id: rreq.rreq_id,
                    route: here,
                })),
                next_hop: Some(next),
            });
            return fx;
        }

        // Cached-route reply: splice our cached path to the target, if the
        // concatenation is loop-free.
        if let Some(tail) = self.find_route(rreq.target, now) {
            let mut full = rreq.route.clone();
            let mut ok = true;
            for n in &tail {
                if full.contains(n) {
                    ok = false;
                    break;
                }
                full.push(*n);
            }
            if ok {
                let next = *rreq.route.last().expect("non-empty record");
                fx.push(ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rrep(DsrRrep {
                        orig: rreq.orig,
                        rreq_id: rreq.rreq_id,
                        route: full,
                    })),
                    next_hop: Some(next),
                });
                return fx;
            }
        }

        if rreq.ttl <= 1 {
            return fx;
        }
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Dsr(DsrMessage::Rreq(DsrRreq {
                route: here,
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
        _prev: NodeId,
        rrep: DsrRrep,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        self.cache_path(&rrep.route, now);
        if rrep.orig == self.node {
            // All buffered packets that the new route can serve.
            let dsts: Vec<NodeId> = rrep.route.iter().skip(1).copied().collect();
            for d in dsts {
                self.flush_buffer(d, now, &mut fx);
            }
            return fx;
        }
        // Relay toward the originator along the recorded route.
        if let Some(pos) = rrep.route.iter().position(|&n| n == self.node) {
            if pos > 0 {
                let next = rrep.route[pos - 1];
                fx.push(ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rrep(rrep)),
                    next_hop: Some(next),
                });
            }
        }
        fx
    }

    fn handle_rerr(&mut self, now: SimTime, rerr: DsrRerr) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        self.scrub_link(rerr.from, rerr.to);
        if rerr.orig == self.node {
            return fx;
        }
        // Forward toward the reported source if we still know a way.
        if let Some(route) = self.find_route(rerr.orig, now) {
            let next = route[1];
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Dsr(DsrMessage::Rerr(rerr)),
                next_hop: Some(next),
            });
        }
        fx
    }
}

/// The sub-slice of `path` from `from` to `to`, if both appear in order.
fn subpath(path: &[NodeId], from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    let i = path.iter().position(|&n| n == from)?;
    let j = path[i..].iter().position(|&n| n == to)? + i;
    if j > i {
        Some(path[i..=j].to_vec())
    } else {
        None
    }
}

impl RoutingProtocol for Dsr {
    fn name(&self) -> &'static str {
        "DSR"
    }

    fn on_start(&mut self, _ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        Vec::new()
    }

    fn on_data_from_app(&mut self, ctx: &mut ProtoCtx<'_>, packet: DataPacket) -> Vec<ProtoEffect> {
        let now = ctx.now;
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        if let Some(route) = self.find_route(packet.dst, now) {
            return self.send_with_route(packet, route);
        }
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
        mut packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        let now = ctx.now;
        let _ = from;
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        // Follow the source route.
        if let Some(sr) = &mut packet.source_route {
            // Cache what the header teaches us.
            let path = sr.hops.clone();
            self.cache_path(&path, now);
            sr.next += 1;
            if let Some(next) = sr.next_hop() {
                if packet.ttl == 0 {
                    return vec![ProtoEffect::DropData {
                        packet,
                        reason: DataDropReason::TtlExpired,
                    }];
                }
                packet.ttl -= 1;
                return vec![ProtoEffect::SendData {
                    packet,
                    next_hop: next,
                }];
            }
        }
        // Malformed or exhausted source route.
        vec![ProtoEffect::DropData {
            packet,
            reason: DataDropReason::NoRoute,
        }]
    }

    fn on_control_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: ControlPacket,
    ) -> Vec<ProtoEffect> {
        let ControlPacket::Dsr(msg) = packet else {
            return Vec::new();
        };
        match msg {
            DsrMessage::Rreq(r) => self.handle_rreq(ctx, from, r),
            DsrMessage::Rrep(r) => self.handle_rrep(ctx, from, r),
            DsrMessage::Rerr(r) => self.handle_rerr(ctx.now, r),
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_>, token: u64) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        let Some(due) = self.discovery.on_timer(DISCOVERY, token, now, &mut fx) else {
            return fx;
        };
        if self.find_route(due.dst, now).is_some() {
            self.flush_buffer(due.dst, now, &mut fx);
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
        self.scrub_link(self.node, next_hop);
        let Some(mut p) = packet else {
            return fx;
        };
        // Report the broken link to the packet's source.
        if p.src != self.node {
            if let Some(route) = self.find_route(p.src, now) {
                fx.push(ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rerr(DsrRerr {
                        from: self.node,
                        to: next_hop,
                        orig: p.src,
                    })),
                    next_hop: Some(route[1]),
                });
            }
        }
        // Salvage: re-route from our own cache, up to the salvage limit.
        let salvages = self.salvage_counts.entry(p.uid).or_insert(0);
        if *salvages < self.cfg.salvage_limit {
            *salvages += 1;
            if let Some(route) = self.find_route(p.dst, now) {
                p.source_route = None;
                fx.extend(self.send_with_route(p, route));
                return fx;
            }
            // No cached alternative: hold and rediscover.
            if let Some(ring) = self.discovery.hold(p, now, &mut fx) {
                self.send_rreq(ring, now, &mut fx);
            }
        } else {
            fx.push(ProtoEffect::DropData {
                packet: p,
                reason: DataDropReason::SalvageFailed,
            });
        }
        fx
    }

    fn stats(&self) -> ProtoStats {
        ProtoStats {
            own_seqno_increments: 0,
            max_fd_denominator: 0,
            discoveries: self.discovery.started(),
            resets_requested: 0,
            adversarial_actions: 0,
            audit_rejections: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn subpath_extraction() {
        assert_eq!(subpath(&[1, 2, 3, 4], 2, 4), Some(vec![2, 3, 4]));
        assert_eq!(subpath(&[1, 2, 3, 4], 4, 2), None);
        assert_eq!(subpath(&[1, 2, 3], 9, 3), None);
        assert_eq!(subpath(&[1, 2, 3], 1, 1), None);
    }

    #[test]
    fn discovery_accumulates_route_and_replies() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut a = Dsr::new(0, DsrConfig::default());
        let mut b = Dsr::new(1, DsrConfig::default());
        let mut c = Dsr::new(2, DsrConfig::default());

        let fx = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 2, 1));
        let rreq = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rreq(r)),
                    ..
                } => Some(r.clone()),
                _ => None,
            })
            .expect("rreq");
        assert_eq!(rreq.route, vec![0]);

        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Dsr(DsrMessage::Rreq(rreq)),
        );
        let relayed = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rreq(r)),
                    ..
                } => Some(r.clone()),
                _ => None,
            })
            .expect("relay");
        assert_eq!(relayed.route, vec![0, 1]);

        let fx = c.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Dsr(DsrMessage::Rreq(relayed)),
        );
        let (rrep, nh) = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rrep(r)),
                    next_hop,
                } => Some((r.clone(), *next_hop)),
                _ => None,
            })
            .expect("target replies");
        assert_eq!(rrep.route, vec![0, 1, 2]);
        assert_eq!(nh, Some(1));

        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            2,
            ControlPacket::Dsr(DsrMessage::Rrep(rrep.clone())),
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::SendControl {
                packet: ControlPacket::Dsr(DsrMessage::Rrep(_)),
                next_hop: Some(0),
            }
        )));

        let fx = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Dsr(DsrMessage::Rrep(rrep)),
        );
        // The buffered packet leaves with a full source route.
        let sent = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendData { packet, next_hop } => Some((packet.clone(), *next_hop)),
                _ => None,
            })
            .expect("flushed");
        assert_eq!(sent.1, 1);
        assert_eq!(sent.0.source_route.as_ref().unwrap().hops, vec![0, 1, 2]);
    }

    #[test]
    fn forwarding_follows_source_route() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut b = Dsr::new(1, DsrConfig::default());
        let mut p = data(0, 2, 9);
        p.source_route = Some(SourceRoute::new(vec![0, 1, 2]));
        let fx = b.on_data_received(&mut ctx_at(&mut rng, 1), 0, p);
        assert!(fx
            .iter()
            .any(|e| matches!(e, ProtoEffect::SendData { next_hop: 2, .. })));
    }

    #[test]
    fn cached_route_reply() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut b = Dsr::new(1, DsrConfig::default());
        b.cache_path(&[1, 5, 9], SimTime::from_secs(1));
        let rreq = DsrRreq {
            orig: 0,
            rreq_id: 1,
            target: 9,
            route: vec![0],
            ttl: 5,
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Dsr(DsrMessage::Rreq(rreq)),
        );
        let rrep = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rrep(r)),
                    ..
                } => Some(r.clone()),
                _ => None,
            })
            .expect("cache reply");
        assert_eq!(rrep.route, vec![0, 1, 5, 9]);
    }

    #[test]
    fn salvage_uses_alternate_cached_route() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut b = Dsr::new(1, DsrConfig::default());
        b.cache_path(&[1, 4, 9], SimTime::from_secs(1));
        let mut p = data(0, 9, 7);
        p.source_route = Some(SourceRoute::new(vec![0, 1, 5, 9]));
        let fx = b.on_link_failure(&mut ctx_at(&mut rng, 1), 5, Some(p));
        let sent = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendData { packet, next_hop } => Some((packet.clone(), *next_hop)),
                _ => None,
            })
            .expect("salvaged");
        assert_eq!(sent.1, 4);
        assert_eq!(sent.0.source_route.as_ref().unwrap().hops, vec![1, 4, 9]);
    }

    #[test]
    fn salvage_limit_drops() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = DsrConfig {
            salvage_limit: 1,
            ..DsrConfig::default()
        };
        let mut b = Dsr::new(1, cfg);
        b.cache_path(&[1, 4, 9], SimTime::from_secs(1));
        let p = data(0, 9, 7);
        let _ = b.on_link_failure(&mut ctx_at(&mut rng, 1), 5, Some(p.clone()));
        // Second failure for the same packet exceeds the limit.
        let fx = b.on_link_failure(&mut ctx_at(&mut rng, 1), 4, Some(p));
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::DropData {
                reason: DataDropReason::SalvageFailed,
                ..
            }
        )));
    }

    #[test]
    fn rerr_scrubs_cache() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut b = Dsr::new(1, DsrConfig::default());
        b.cache_path(&[1, 5, 9], SimTime::from_secs(1));
        assert!(b.find_route(9, SimTime::from_secs(1)).is_some());
        let rerr = DsrRerr {
            from: 5,
            to: 9,
            orig: 1,
        };
        let _ = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            5,
            ControlPacket::Dsr(DsrMessage::Rerr(rerr)),
        );
        assert!(b.find_route(9, SimTime::from_secs(1)).is_none());
        assert!(
            b.find_route(5, SimTime::from_secs(1)).is_some(),
            "prefix survives"
        );
    }

    #[test]
    fn timer_flushes_once_a_route_appears_and_gives_up_after_the_last_ring() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut a = Dsr::new(0, DsrConfig::default());
        let _ = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 9, 1));
        // The cache learns a path while the first ring is out (overheard
        // traffic): the timer sends the held packet instead of retrying.
        a.cache_path(&[0, 4, 9], SimTime::from_secs(1));
        let fx = a.on_timer(&mut ctx_at(&mut rng, 2), Attempt { dst: 9, n: 0 }.token());
        let [ProtoEffect::SendData {
            packet,
            next_hop: 4,
        }] = &fx[..]
        else {
            panic!("expected one flushed packet: {fx:?}");
        };
        assert_eq!(packet.source_route.as_ref().unwrap().hops, [0, 4, 9]);
        assert!(a.discovery.is_idle() && a.discovery.buffer().is_empty());

        let mut b = Dsr::new(0, DsrConfig::default());
        let _ = b.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 9, 1));
        for n in 0..2 {
            let fx = b.on_timer(&mut ctx_at(&mut rng, 2), Attempt { dst: 9, n }.token());
            assert!(matches!(
                fx[..],
                [
                    ProtoEffect::SendControl { .. },
                    ProtoEffect::SetTimer { .. }
                ]
            ));
        }
        let fx = b.on_timer(&mut ctx_at(&mut rng, 3), Attempt { dst: 9, n: 2 }.token());
        assert!(matches!(
            fx[..],
            [ProtoEffect::DropData {
                reason: DataDropReason::NoRoute,
                ..
            }]
        ));
        assert_eq!(b.stats().discoveries, 4);
    }

    #[test]
    fn cache_rejects_looping_paths_and_expires() {
        let mut b = Dsr::new(1, DsrConfig::default());
        b.cache_path(&[1, 5, 1, 9], SimTime::from_secs(1));
        assert!(b.cache.is_empty());
        b.cache_path(&[1, 5, 9], SimTime::from_secs(1));
        assert!(b.find_route(9, SimTime::from_secs(2)).is_some());
        assert!(b.find_route(9, SimTime::from_secs(10_000)).is_none());
    }
}
